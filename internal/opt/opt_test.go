package opt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mos"
	"repro/internal/rctree"
	"repro/internal/sim"
)

// polyLine is the §V interconnect: 7.5 Ω and ~4.6e-4 pF per micron
// (180 Ω / 0.011 pF per 24 µm). Units: ohms, pF, µm; times in ps.
var polyLine = Line{RPerLen: 7.5, CPerLen: 4.6e-4}

func TestMaxParamBisection(t *testing.T) {
	// Largest p with p^2 <= 10.
	got, err := MaxParam(0, 100, 1e-9, func(p float64) (bool, error) {
		return p*p <= 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Sqrt(10)) > 1e-6 {
		t.Errorf("MaxParam = %g, want sqrt(10)", got)
	}
	// Constraint true everywhere returns hi.
	got, err = MaxParam(0, 5, 1e-9, func(float64) (bool, error) { return true, nil })
	if err != nil || got != 5 {
		t.Errorf("all-true MaxParam = %g, %v; want 5", got, err)
	}
	// Constraint false at lo errors.
	if _, err := MaxParam(1, 5, 1e-9, func(float64) (bool, error) { return false, nil }); err == nil {
		t.Error("unsatisfiable constraint accepted")
	}
	// lo >= hi errors.
	if _, err := MaxParam(5, 5, 1e-9, func(float64) (bool, error) { return true, nil }); err == nil {
		t.Error("empty interval accepted")
	}
	// Callback errors propagate.
	boom := fmt.Errorf("boom")
	if _, err := MaxParam(0, 1, 1e-9, func(float64) (bool, error) { return false, boom }); err == nil {
		t.Error("callback error swallowed")
	}
}

func buildNet(rEff float64) (*rctree.Tree, rctree.NodeID, error) {
	b := rctree.NewBuilder("in")
	drv, err := mos.AttachDriver(b, mos.Driver{Name: "drv", REff: rEff, COut: 0.04})
	if err != nil {
		return nil, 0, err
	}
	far := b.Line(drv, "far", 1800, 0.11) // 240 µm of §V poly
	b.Capacitor(far, 0.013)
	b.Output(far)
	t, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return t, far, nil
}

// TestSizeDriverTreeMatchesSizeDriver: the incremental sizer must land on
// the same resistance as the rebuild-per-probe sizer, and its answer must
// certify on a freshly built network.
func TestSizeDriverTreeMatchesSizeDriver(t *testing.T) {
	budget := Budget{V: 0.7, Deadline: 2000}
	want, err := SizeDriver(buildNet, budget, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	tree, out, err := buildNet(500) // the starting R is irrelevant; probes overwrite it
	if err != nil {
		t.Fatal(err)
	}
	drv, ok := tree.Lookup("drv")
	if !ok {
		t.Fatal("driver node missing")
	}
	got, err := SizeDriverTree(tree, drv, out, budget, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-3*want {
		t.Errorf("SizeDriverTree = %g, SizeDriver = %g", got, want)
	}
	ct, cout, err := buildNet(got)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := certified(ct, cout, budget); err != nil || !ok {
		t.Errorf("SizeDriverTree result %g does not certify (err=%v)", got, err)
	}
	if _, err := SizeDriverTree(tree, rctree.Root, out, budget, 1, 10); err == nil {
		t.Error("driverEdge = Root accepted")
	}
	if _, err := SizeDriverTree(tree, out, out, budget, 1, 10); err == nil {
		t.Error("non-driver interior node accepted as driverEdge")
	}
	if _, err := SizeDriverTree(tree, drv, out, Budget{V: 2, Deadline: 1}, 1, 10); err == nil {
		t.Error("invalid budget accepted")
	}
}

// TestSizeDriver: the returned resistance certifies the budget, and a
// slightly larger driver resistance does not — i.e. the answer is maximal.
func TestSizeDriver(t *testing.T) {
	budget := Budget{V: 0.7, Deadline: 2000} // 2 ns
	r, err := SizeDriver(buildNet, budget, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	check := func(rr float64) bool {
		tree, out, err := buildNet(rr)
		if err != nil {
			t.Fatal(err)
		}
		tm, _ := tree.CharacteristicTimes(out)
		b := core.MustNew(tm)
		return b.TMax(budget.V) <= budget.Deadline
	}
	if !check(r) {
		t.Errorf("SizeDriver result %g does not certify", r)
	}
	if check(r * 1.01) {
		t.Errorf("SizeDriver result %g is not maximal", r)
	}
	// The certified design also passes in exact simulation, with margin.
	tree, out, _ := buildNet(r)
	lumped, mapping, err := sim.Discretize(tree, 16)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := sim.NewCircuit(lumped)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ckt.EigenResponse()
	if err != nil {
		t.Fatal(err)
	}
	i, _ := ckt.Index(mapping[out])
	if cross := resp.CrossingTime(i, budget.V, 1e-10); cross > budget.Deadline {
		t.Errorf("certified design missed deadline in simulation: %g > %g", cross, budget.Deadline)
	}
}

func TestSizeDriverValidation(t *testing.T) {
	if _, err := SizeDriver(buildNet, Budget{V: 0, Deadline: 1}, 1, 10); err == nil {
		t.Error("bad threshold accepted")
	}
	if _, err := SizeDriver(buildNet, Budget{V: 0.5, Deadline: 0}, 1, 10); err == nil {
		t.Error("zero deadline accepted")
	}
}

// TestMaxWireLength: monotone in the budget, and the returned length is
// tight (1% longer fails certification).
func TestMaxWireLength(t *testing.T) {
	d := mos.Superbuffer()
	budgetShort := Budget{V: 0.7, Deadline: 500}
	budgetLong := Budget{V: 0.7, Deadline: 5000}
	lShort, err := MaxWireLength(d, polyLine, 0.013, budgetShort, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	lLong, err := MaxWireLength(d, polyLine, 0.013, budgetLong, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if lShort >= lLong {
		t.Errorf("more budget should allow more wire: %g vs %g", lShort, lLong)
	}
	// Tightness.
	tree, out, err := buildPointToPoint(d, polyLine, lLong*1.01, 0.013)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := tree.CharacteristicTimes(out)
	if core.MustNew(tm).TMax(0.7) <= budgetLong.Deadline {
		t.Error("MaxWireLength not maximal")
	}
	// Cap respected.
	capped, err := MaxWireLength(d, polyLine, 0.013, Budget{V: 0.7, Deadline: 1e12}, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if capped != 1234 {
		t.Errorf("cap not honored: %g", capped)
	}
}

func TestMaxWireLengthValidation(t *testing.T) {
	d := mos.Superbuffer()
	if _, err := MaxWireLength(d, Line{}, 0, Budget{V: 0.5, Deadline: 1}, 10); err == nil {
		t.Error("zero line accepted")
	}
	if _, err := MaxWireLength(d, polyLine, 0, Budget{V: 0.5, Deadline: 1}, 0); err == nil {
		t.Error("zero maxLen accepted")
	}
}

// TestInsertRepeaters: on a long line, repeaters beat the unbuffered wire
// (quadratic -> linear), and the chosen stage count scales roughly linearly
// with length, the classical result.
func TestInsertRepeaters(t *testing.T) {
	d := mos.Superbuffer()
	const repeaterIn, loadC = 0.05, 0.013
	long, err := InsertRepeaters(d, polyLine, 20000, repeaterIn, loadC, 0.5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if long.Stages < 2 {
		t.Fatalf("a 20 mm line should want repeaters, got %d stages", long.Stages)
	}
	// Compare with the unbuffered certified delay.
	tree, out, err := buildPointToPoint(d, polyLine, 20000, loadC)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := tree.CharacteristicTimes(out)
	unbuffered := core.MustNew(tm).TMax(0.5)
	if long.TotalTMax >= unbuffered {
		t.Errorf("repeatered %g not faster than unbuffered %g", long.TotalTMax, unbuffered)
	}
	// Stage count grows with length (~linearly in the long-line limit).
	short, err := InsertRepeaters(d, polyLine, 5000, repeaterIn, loadC, 0.5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if short.Stages >= long.Stages {
		t.Errorf("stage count should grow with length: %d vs %d", short.Stages, long.Stages)
	}
	ratio := float64(long.Stages) / float64(short.Stages)
	if ratio < 2 || ratio > 8 {
		t.Errorf("stages ratio for 4x length = %g, want roughly 4", ratio)
	}
	// Consistency of the plan arithmetic.
	if math.Abs(long.TotalTMax-float64(long.Stages)*long.PerStageTMax) > 1e-9 {
		t.Error("TotalTMax != Stages * PerStageTMax")
	}
}

func TestInsertRepeatersValidation(t *testing.T) {
	d := mos.Superbuffer()
	if _, err := InsertRepeaters(d, polyLine, 1000, 0.05, 0.013, 0, 8); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := InsertRepeaters(d, polyLine, 0, 0.05, 0.013, 0.5, 8); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := InsertRepeaters(d, polyLine, 1000, 0.05, 0.013, 0.5, 0); err == nil {
		t.Error("zero maxStages accepted")
	}
	if _, err := InsertRepeaters(d, Line{}, 1000, 0.05, 0.013, 0.5, 8); err == nil {
		t.Error("zero line accepted")
	}
}

// TestShortLineNoRepeaters: when the wire is short, one stage is optimal.
func TestShortLineNoRepeaters(t *testing.T) {
	plan, err := InsertRepeaters(mos.Superbuffer(), polyLine, 100, 0.05, 0.013, 0.5, 16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stages != 1 {
		t.Errorf("100 µm line chose %d stages, want 1", plan.Stages)
	}
}

// TestMaxParamStatsProbeCount: the exported probe count matches what the
// callback observed, and the endpoint-only answers cost exactly two probes.
func TestMaxParamStatsProbeCount(t *testing.T) {
	calls := 0
	got, stats, err := MaxParamStats(0, 100, 1e-9, func(p float64) (bool, error) {
		calls++
		return p*p <= 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Sqrt(10)) > 1e-6 {
		t.Errorf("MaxParamStats = %g, want sqrt(10)", got)
	}
	if stats.Probes != calls || stats.Probes < 10 {
		t.Errorf("Probes = %d (callback saw %d); a 1e-9 bisection needs dozens", stats.Probes, calls)
	}
	if stats.Edits != 0 {
		t.Errorf("generic MaxParamStats reported %d edits; the callback is opaque", stats.Edits)
	}
	// All-true answers at the hi endpoint after exactly two probes.
	_, stats, err = MaxParamStats(0, 5, 1e-9, func(float64) (bool, error) { return true, nil })
	if err != nil || stats.Probes != 2 {
		t.Errorf("all-true probes = %d, %v; want 2", stats.Probes, err)
	}
	// Unsatisfiable-at-lo answers after exactly one.
	_, stats, _ = MaxParamStats(1, 5, 1e-9, func(float64) (bool, error) { return false, nil })
	if stats.Probes != 1 {
		t.Errorf("unsatisfiable probes = %d, want 1", stats.Probes)
	}
}

// TestProbeCostExports: the in-place searches report their EditTree edit
// spend as Probes · EditsPerProbe, and InsertRepeaters reports one probe per
// candidate stage count.
func TestProbeCostExports(t *testing.T) {
	budget := Budget{V: 0.7, Deadline: 2000}
	length, stats, err := MaxWireLengthStats(mos.Superbuffer(), polyLine, 0.013, budget, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if length <= 0 || length >= 1e6 {
		t.Fatalf("length = %g", length)
	}
	if stats.Probes < 10 || stats.Edits != stats.Probes*EditsPerProbe {
		t.Errorf("wire stats = %+v, want Edits = Probes*%d", stats, EditsPerProbe)
	}
	tr, out, err := buildNet(500)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err = SizeDriverTreeStats(tr, rctree.NodeID(1), out, Budget{V: 0.7, Deadline: 2000}, 10, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Probes < 3 || stats.Edits != stats.Probes*EditsPerProbe {
		t.Errorf("driver stats = %+v, want Edits = Probes*%d", stats, EditsPerProbe)
	}
	plan, err := InsertRepeaters(mos.Superbuffer(), polyLine, 2000, 0.013, 0.013, 0.7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Probes != 8 {
		t.Errorf("repeater Probes = %d, want maxStages 8", plan.Probes)
	}
}

// TestMaxWireLengthZeroLengthEdge: a budget no wire can meet — not even a
// near-zero-length one — falls through to the generic unsatisfiable-at-lo
// bisection error rather than returning a zero or negative length; a budget
// generous enough for the full span returns maxLen after the two endpoint
// probes alone.
func TestMaxWireLengthZeroLengthEdge(t *testing.T) {
	// The driver alone (against its own output cap plus the load) already
	// blows a 1e-6 ps deadline, so the zero-length limit fails too.
	_, stats, err := MaxWireLengthStats(mos.Superbuffer(), polyLine, 0.013,
		Budget{V: 0.7, Deadline: 1e-6}, 1e4)
	if err == nil {
		t.Fatal("impossible budget certified a wire length")
	}
	if stats.Probes != 1 {
		t.Errorf("impossible budget probes = %d, want 1 (lo endpoint only)", stats.Probes)
	}
	// A kilometer of slack: the hi endpoint certifies and the search stops.
	length, stats, err := MaxWireLengthStats(mos.Superbuffer(), polyLine, 0.013,
		Budget{V: 0.7, Deadline: 1e12}, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if length != 1e4 {
		t.Errorf("generous budget length = %g, want maxLen", length)
	}
	if stats.Probes != 2 {
		t.Errorf("generous budget probes = %d, want 2 (both endpoints)", stats.Probes)
	}
}

// TestSizeDriverTreeSingleNodeEdges: degenerate trees around the driver
// edge. A single-node tree (just the input) has no driver edge at all; a
// two-node tree whose only element IS the driver edge is the smallest legal
// search and still answers through the generic bisection bounds.
func TestSizeDriverTreeSingleNodeEdges(t *testing.T) {
	// Single-node tree: only the input, nothing to size.
	lone, err := rctree.NewBuilder("in").Build()
	if err == nil {
		if _, _, err := SizeDriverTreeStats(lone, rctree.NodeID(1), rctree.Root,
			Budget{V: 0.5, Deadline: 100}, 1, 10); err == nil {
			t.Error("single-node tree accepted a driver edge")
		}
	}
	// Two-node tree: driver edge straight into the (only) loaded output.
	b := rctree.NewBuilder("in")
	o := b.Resistor(rctree.Root, "o", 100)
	b.Capacitor(o, 1)
	b.Output(o)
	tiny, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// RC = r·1; deadline 50 at v=0.5 certifies r up to ~50/ln2 ≈ 72.1.
	r, stats, err := SizeDriverTreeStats(tiny, o, o, Budget{V: 0.5, Deadline: 50}, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 / math.Ln2
	if math.Abs(r-want) > 1e-3*want {
		t.Errorf("two-node sizing = %g, want %g", r, want)
	}
	if stats.Probes < 10 {
		t.Errorf("two-node sizing probes = %d; expected a real bisection", stats.Probes)
	}
	// A node deeper than the input is rejected as the driver edge.
	b2 := rctree.NewBuilder("in")
	n1 := b2.Resistor(rctree.Root, "n1", 10)
	n2 := b2.Resistor(n1, "n2", 10)
	b2.Capacitor(n2, 1)
	b2.Output(n2)
	deep, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SizeDriverTreeStats(deep, n2, n2, Budget{V: 0.5, Deadline: 50}, 1, 10); err == nil {
		t.Error("deep edge accepted as the driver")
	}
}

// TestThresholdAndDeadlineRejectNonFinite: a threshold outside (0,1) or a
// deadline that is not positive is refused, NaN included — NaN fails every
// ordered comparison, so a plain v <= 0 || v >= 1 test lets it through.
func TestThresholdAndDeadlineRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	d := mos.Superbuffer()
	for _, v := range []float64{nan, inf, -inf, 0, 1, -0.1} {
		if err := (Budget{V: v, Deadline: 1}).validate(); err == nil {
			t.Errorf("Budget threshold %g accepted", v)
		}
		if _, err := InsertRepeaters(d, polyLine, 1000, 0.05, 0.013, v, 8); err == nil {
			t.Errorf("InsertRepeaters threshold %g accepted", v)
		}
	}
	for _, dl := range []float64{nan, -inf, 0, -0.1} {
		if err := (Budget{V: 0.5, Deadline: dl}).validate(); err == nil {
			t.Errorf("Budget deadline %g accepted", dl)
		}
	}
	if err := (Budget{V: 0.5, Deadline: 1}).validate(); err != nil {
		t.Errorf("valid budget refused: %v", err)
	}
}
