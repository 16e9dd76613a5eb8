package timing

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/incr"
	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/rctree"
)

// closeEnough compares to 1e-9 relative tolerance, treating equal
// infinities as close.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

func intervalsClose(a, b Interval) bool {
	return closeEnough(a.Min, b.Min) && closeEnough(a.Max, b.Max)
}

// assertMatchesFull materializes the session's current design, re-analyzes
// it from scratch, and checks every net bound, arrival interval and endpoint
// slack against the session's incremental state to 1e-9.
func assertMatchesFull(t *testing.T, s *Session, required float64) {
	t.Helper()
	d, err := s.Design()
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	full, err := Analyze(context.Background(), d, Options{
		Threshold: s.th, Required: required, K: s.k, Sequential: true,
	})
	if err != nil {
		t.Fatalf("full analysis: %v", err)
	}
	// Per-net bounds: every designated output's [TMin, TMax].
	for _, n := range d.Nets {
		for _, o := range n.Tree.Outputs() {
			name := n.Tree.Name(o)
			wantMin, wantMax := boundsAt(t, n.Tree, name, s.th)
			got, ok := s.NetDelay(n.Name, name)
			if !ok {
				t.Fatalf("net %s/%s: no incremental delay", n.Name, name)
			}
			if !closeEnough(got.Min, wantMin) || !closeEnough(got.Max, wantMax) {
				t.Fatalf("net %s/%s delay = %+v, full = [%g, %g]", n.Name, name, got, wantMin, wantMax)
			}
		}
	}
	// Endpoint arrivals and slacks, keyed (sorting may permute ties).
	sessRep := s.Report()
	if len(sessRep.Endpoints) != len(full.Endpoints) {
		t.Fatalf("endpoint count %d vs full %d", len(sessRep.Endpoints), len(full.Endpoints))
	}
	type key struct{ net, output string }
	sessEp := map[key]EndpointSlack{}
	for _, e := range sessRep.Endpoints {
		sessEp[key{e.Net, e.Output}] = e
	}
	for _, want := range full.Endpoints {
		got, ok := sessEp[key{want.Net, want.Output}]
		if !ok {
			t.Fatalf("endpoint %s/%s missing from session report", want.Net, want.Output)
		}
		if !intervalsClose(got.Arrival, want.Arrival) {
			t.Fatalf("endpoint %s/%s arrival %+v vs full %+v", want.Net, want.Output, got.Arrival, want.Arrival)
		}
		if !closeEnough(got.Slack, want.Slack) {
			t.Fatalf("endpoint %s/%s slack %g vs full %g", want.Net, want.Output, got.Slack, want.Slack)
		}
	}
	if !closeEnough(sessRep.WNS, full.WNS) || !closeEnough(sessRep.TNS, full.TNS) {
		t.Fatalf("WNS/TNS %g/%g vs full %g/%g", sessRep.WNS, sessRep.TNS, full.WNS, full.TNS)
	}
}

func f64(v float64) *float64 { return &v }

func newTestSession(t *testing.T, d *netlist.Design, opt Options) *Session {
	t.Helper()
	opt.Sequential = true
	s, err := NewSession(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionSingleEditMatchesFull(t *testing.T) {
	a := simpleNet(t, "a", 10, 5)
	b := simpleNet(t, "b", 20, 3)
	d := &netlist.Design{
		Name:     "chain",
		Nets:     []netlist.DesignNet{a, b},
		Stages:   []netlist.Stage{{FromNet: "a", FromOutput: "o", ToNet: "b", Delay: 7}},
		Requires: []netlist.Require{{Net: "b", Output: "o", Time: 500}},
	}
	s := newTestSession(t, d, Options{Threshold: 0.5})
	assertMatchesFull(t, s, 0)
	base := s.Report()
	res, err := s.Apply([]Edit{{Op: "setR", Net: "a", Node: "o", R: f64(40)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Gen != 1 {
		t.Errorf("res = %+v", res)
	}
	if res.DirtyNets != 2 || res.VisitedNets != 2 {
		t.Errorf("dirty/visited = %d/%d, want 2/2", res.DirtyNets, res.VisitedNets)
	}
	assertMatchesFull(t, s, 0)
	after := s.Report()
	if after.Endpoints[0].Arrival.Max <= base.Endpoints[0].Arrival.Max {
		t.Errorf("quadrupled driver R did not slow the endpoint: %+v vs %+v",
			after.Endpoints[0].Arrival, base.Endpoints[0].Arrival)
	}
	if !closeEnough(res.WNS, after.WNS) || !closeEnough(res.TNS, after.TNS) {
		t.Errorf("apply WNS/TNS %g/%g vs report %g/%g", res.WNS, res.TNS, after.WNS, after.TNS)
	}
}

func TestSessionFaninFlipAtMerge(t *testing.T) {
	fast := simpleNet(t, "fast", 1, 1)
	slow := simpleNet(t, "slow", 100, 10)
	sink := simpleNet(t, "sink", 5, 2)
	d := &netlist.Design{
		Nets: []netlist.DesignNet{fast, slow, sink},
		Stages: []netlist.Stage{
			{FromNet: "fast", FromOutput: "o", ToNet: "sink", Delay: 1},
			{FromNet: "slow", FromOutput: "o", ToNet: "sink", Delay: 2},
		},
		Requires: []netlist.Require{{Net: "sink", Output: "o", Time: 1e4}},
	}
	s := newTestSession(t, d, Options{Threshold: 0.5, K: 1})
	if hops := s.Report().Paths[0].Hops; hops[0].Net != "slow" {
		t.Fatalf("baseline critical path starts at %q, want slow", hops[0].Net)
	}
	// Make the former fast driver the dominant one: the merge's worst fanin
	// must flip, and everything must still agree with a full re-analysis.
	if _, err := s.Apply([]Edit{{Op: "setR", Net: "fast", Node: "o", R: f64(5000)}}); err != nil {
		t.Fatal(err)
	}
	assertMatchesFull(t, s, 0)
	if hops := s.Report().Paths[0].Hops; hops[0].Net != "fast" {
		t.Errorf("critical path starts at %q after flip, want fast", hops[0].Net)
	}
	// Flip back via the other knob (scaleDriver on the slow net).
	if _, err := s.Apply([]Edit{{Op: "scaleDriver", Net: "slow", Factor: f64(200)}}); err != nil {
		t.Fatal(err)
	}
	assertMatchesFull(t, s, 0)
	if hops := s.Report().Paths[0].Hops; hops[0].Net != "slow" {
		t.Errorf("critical path starts at %q after flip back, want slow", hops[0].Net)
	}
}

func TestSessionEarlyExit(t *testing.T) {
	// sink's input hull is set by fast (min) and slow (max); mid sits strictly
	// inside. Editing mid within the hull moves mid's arrival but not sink's
	// input, so the sweep must visit sink and stop there.
	fast := simpleNet(t, "fast", 1, 1)
	mid := simpleNet(t, "mid", 10, 2)
	slow := simpleNet(t, "slow", 100, 10)
	sink := simpleNet(t, "sink", 5, 2)
	leaf := simpleNet(t, "leaf", 2, 2)
	d := &netlist.Design{
		Nets: []netlist.DesignNet{fast, mid, slow, sink, leaf},
		Stages: []netlist.Stage{
			{FromNet: "fast", FromOutput: "o", ToNet: "sink", Delay: 1},
			{FromNet: "mid", FromOutput: "o", ToNet: "sink", Delay: 1},
			{FromNet: "slow", FromOutput: "o", ToNet: "sink", Delay: 1},
			{FromNet: "sink", FromOutput: "o", ToNet: "leaf", Delay: 1},
		},
	}
	s := newTestSession(t, d, Options{Threshold: 0.5})
	res, err := s.Apply([]Edit{{Op: "setR", Net: "mid", Node: "o", R: f64(12)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyNets != 1 {
		t.Errorf("dirty = %d, want 1 (mid only)", res.DirtyNets)
	}
	if res.VisitedNets != 2 {
		t.Errorf("visited = %d, want 2 (mid + sink early exit)", res.VisitedNets)
	}
	assertMatchesFull(t, s, 0)

	// Editing slow moves the hull max: the wave must reach the leaf.
	res, err = s.Apply([]Edit{{Op: "setR", Net: "slow", Node: "o", R: f64(150)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyNets != 3 || res.VisitedNets != 3 {
		t.Errorf("dirty/visited = %d/%d, want 3/3 (slow, sink, leaf)", res.DirtyNets, res.VisitedNets)
	}
	assertMatchesFull(t, s, 0)
}

func TestSessionStructuralGuards(t *testing.T) {
	a := simpleNet(t, "a", 10, 5)
	b := simpleNet(t, "b", 20, 3)
	d := &netlist.Design{
		Nets:     []netlist.DesignNet{a, b},
		Stages:   []netlist.Stage{{FromNet: "a", FromOutput: "o", ToNet: "b", Delay: 7}},
		Requires: []netlist.Require{{Net: "b", Output: "o", Time: 500}},
	}
	s := newTestSession(t, d, Options{})
	cases := []struct {
		name string
		edit Edit
		want string
	}{
		{"prune stage-tapped", Edit{Op: "prune", Net: "a", Node: "o"}, "tapped by a stage"},
		{"removeOutput stage-tapped", Edit{Op: "removeOutput", Net: "a", Node: "o"}, "tapped by a stage"},
		{"prune require-pinned", Edit{Op: "prune", Net: "b", Node: "o"}, "tapped by a stage"},
		{"unknown net", Edit{Op: "setR", Net: "ghost", Node: "o", R: f64(1)}, "unknown net"},
		{"unknown node", Edit{Op: "setR", Net: "a", Node: "ghost", R: f64(1)}, "unknown node"},
		{"unknown op", Edit{Op: "warp", Net: "a"}, "unknown op"},
		{"missing value", Edit{Op: "setR", Net: "a", Node: "o"}, "missing"},
		{"no net", Edit{Op: "setR", Node: "o", R: f64(1)}, "names no net"},
	}
	for _, tc := range cases {
		res, err := s.Apply([]Edit{tc.edit})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if res.Applied != 0 {
			t.Errorf("%s: applied = %d", tc.name, res.Applied)
		}
	}
	// Partial application: the first edit lands, the failing second leaves a
	// consistent propagated state.
	res, err := s.Apply([]Edit{
		{Op: "setR", Net: "a", Node: "o", R: f64(15)},
		{Op: "prune", Net: "a", Node: "o"},
	})
	if err == nil || res.Applied != 1 {
		t.Fatalf("partial apply: res = %+v, err = %v", res, err)
	}
	assertMatchesFull(t, s, 0)
}

func TestSessionGrowPruneEndpoints(t *testing.T) {
	a := simpleNet(t, "a", 10, 5)
	b := simpleNet(t, "b", 20, 3)
	d := &netlist.Design{
		Nets:   []netlist.DesignNet{a, b},
		Stages: []netlist.Stage{{FromNet: "a", FromOutput: "o", ToNet: "b", Delay: 7}},
	}
	s := newTestSession(t, d, Options{Required: 1e4})
	if n := len(s.Report().Endpoints); n != 1 {
		t.Fatalf("baseline endpoints = %d", n)
	}
	// Grow a tap on b and designate it: a new endpoint must appear and agree
	// with the full analysis of the materialized design.
	res, err := s.Apply([]Edit{
		{Op: "grow", Net: "b", Parent: "o", Name: "tap", Kind: "line", R: f64(5), C: f64(2)},
		{Op: "addOutput", Net: "b", Node: "tap"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 {
		t.Fatalf("applied = %d", res.Applied)
	}
	if n := len(s.Report().Endpoints); n != 2 {
		t.Fatalf("endpoints after grow = %d, want 2", n)
	}
	assertMatchesFull(t, s, 1e4)
	// Prune it again: the endpoint disappears.
	if _, err := s.Apply([]Edit{{Op: "prune", Net: "b", Node: "tap"}}); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Report().Endpoints); n != 1 {
		t.Fatalf("endpoints after prune = %d, want 1", n)
	}
	assertMatchesFull(t, s, 1e4)
}

func TestSessionInvalidatedPaths(t *testing.T) {
	fast := simpleNet(t, "fast", 1, 1)
	slow := simpleNet(t, "slow", 100, 10)
	sink := simpleNet(t, "sink", 5, 2)
	d := &netlist.Design{
		Nets: []netlist.DesignNet{fast, slow, sink},
		Stages: []netlist.Stage{
			{FromNet: "fast", FromOutput: "o", ToNet: "sink", Delay: 1},
			{FromNet: "slow", FromOutput: "o", ToNet: "sink", Delay: 2},
		},
		Requires: []netlist.Require{{Net: "sink", Output: "o", Time: 1e4}},
	}
	s := newTestSession(t, d, Options{K: 1})
	_ = s.Report() // memoize paths so the next Apply can invalidate them
	res, err := s.Apply([]Edit{{Op: "setC", Net: "slow", Node: "o", C: f64(20)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InvalidatedPaths) != 1 || res.InvalidatedPaths[0] != "sink/o" {
		t.Errorf("invalidated = %v, want [sink/o]", res.InvalidatedPaths)
	}
	// Without a memoized report there is nothing to invalidate.
	res, err = s.Apply([]Edit{{Op: "setC", Net: "slow", Node: "o", C: f64(25)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InvalidatedPaths) != 0 {
		t.Errorf("invalidated = %v, want none", res.InvalidatedPaths)
	}
}

// TestApplyResultJSON: WNS rides the wire as an omitted-when-Inf field, like
// the report's.
func TestApplyResultJSON(t *testing.T) {
	res := ApplyResult{Gen: 3, Applied: 1, WNS: -2.5, TNS: -2.5}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["wns"].(float64) != -2.5 || decoded["gen"].(float64) != 3 {
		t.Errorf("wire form = %s", data)
	}
	res.WNS = math.Inf(1)
	data, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "wns") || strings.Contains(string(data), "Inf") {
		t.Errorf("unconstrained WNS leaked: %s", data)
	}
}

func TestSessionParallelInitMatchesSequential(t *testing.T) {
	d := randnet.DesignSeed(7, randnet.DefaultDesignConfig(3, 4))
	par, err := NewSession(context.Background(), d, Options{Required: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	seq := newTestSession(t, d, Options{Required: 1e4})
	pr, sr := par.Report(), seq.Report()
	if len(pr.Endpoints) != len(sr.Endpoints) {
		t.Fatalf("endpoint counts differ: %d vs %d", len(pr.Endpoints), len(sr.Endpoints))
	}
	if pr.WNS != sr.WNS || pr.TNS != sr.TNS {
		t.Errorf("parallel init WNS/TNS %g/%g vs sequential %g/%g", pr.WNS, pr.TNS, sr.WNS, sr.TNS)
	}
}

// randomEdit draws one structurally plausible edit against the session's
// current state. It may still be rejected (e.g. pruning a protected output);
// the caller skips those.
func randomEdit(rng *rand.Rand, s *Session, seq *int) Edit {
	return randomEditOf(rng, s, seq, -1)
}

// Op indices of randomEditOf beyond the node-value edits 0-4.
const (
	opGrow   = 5
	opPrune  = 6
	opOutput = 7 // addOutput or removeOutput, whichever applies
)

// randomEditOf is randomEdit with the op index fixed; op < 0 draws one of
// 0-6 (every op but the output edits).
func randomEditOf(rng *rand.Rand, s *Session, seq *int, op int) Edit {
	i := rng.Intn(len(s.trees))
	et := s.netTree(i)
	net := s.g.nodes[i].name
	// Collect live non-root node names through the public surface: slot IDs
	// only grow by one per Grow, so a fixed scan bound covers them all.
	var nodes []string
	for id := 1; id < 64; id++ {
		if name := et.Name(incr.NodeID(id)); name != "" {
			nodes = append(nodes, name)
		}
	}
	pick := func() string { return nodes[rng.Intn(len(nodes))] }
	if op < 0 {
		op = rng.Intn(7)
	}
	switch op {
	case 0:
		return Edit{Op: "setR", Net: net, Node: pick(), R: f64(1 + rng.Float64()*199)}
	case 1:
		return Edit{Op: "setC", Net: net, Node: pick(), C: f64(rng.Float64() * 20)}
	case 2:
		return Edit{Op: "addC", Net: net, Node: pick(), C: f64(rng.Float64() * 5)}
	case 3:
		return Edit{Op: "setLine", Net: net, Node: pick(), R: f64(1 + rng.Float64()*99), C: f64(rng.Float64() * 10)}
	case 4:
		return Edit{Op: "scaleDriver", Net: net, Factor: f64(0.2 + rng.Float64()*3)}
	case opGrow:
		*seq++
		kind := "resistor"
		var c *float64
		if rng.Intn(2) == 0 {
			kind = "line"
			c = f64(0.5 + rng.Float64()*5)
		}
		return Edit{Op: "grow", Net: net, Parent: pick(), Name: fmt.Sprintf("g%d", *seq), Kind: kind, R: f64(1 + rng.Float64()*50), C: c}
	case opPrune:
		return Edit{Op: "prune", Net: net, Node: pick()}
	default:
		node := pick()
		id, _ := et.Lookup(node)
		if slices.Contains(et.Outputs(), id) {
			return Edit{Op: "removeOutput", Net: net, Node: node}
		}
		return Edit{Op: "addOutput", Net: net, Node: node}
	}
}

// TestSessionPropertyRandomEdits is the headline equivalence property: over
// 200+ randomized edit sequences on random layered designs, the incremental
// session must agree with a from-scratch analysis of the materialized design
// to 1e-9 on every net bound, arrival interval and endpoint slack — the
// comparison runs after every edit, so mid-sequence drift cannot hide.
func TestSessionPropertyRandomEdits(t *testing.T) {
	seqs := 200
	editsPerSeq := 6
	if testing.Short() {
		seqs = 25
	}
	cfg := randnet.DesignConfig{
		Levels:   3,
		Width:    3,
		Net:      randnet.DefaultConfig(10),
		FaninMax: 3,
		DelayMax: 10,
	}
	for seed := 0; seed < seqs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		d := randnet.Design(rng, cfg)
		s, err := NewSession(context.Background(), d, Options{Threshold: 0.7, Required: 1e4, Sequential: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		growSeq := 0
		applied := 0
		for applied < editsPerSeq {
			e := randomEdit(rng, s, &growSeq)
			if _, err := s.Apply([]Edit{e}); err != nil {
				if e.Op == "prune" {
					continue // protected output; draw another edit
				}
				t.Fatalf("seed %d: apply %+v: %v", seed, e, err)
			}
			applied++
			assertMatchesFullProperty(t, s, seed, applied)
		}
	}
}

// assertMatchesFullProperty is assertMatchesFull with a seed-stamped failure
// message so a property counterexample is reproducible.
func assertMatchesFullProperty(t *testing.T, s *Session, seed, step int) {
	t.Helper()
	if t.Failed() {
		t.Fatalf("seed %d step %d: see failure above", seed, step)
	}
	assertMatchesFull(t, s, 1e4)
	if t.Failed() {
		t.Fatalf("counterexample: seed %d, step %d", seed, step)
	}
}

// TestSessionForkIndependence: a fork answers exactly what the parent
// answered at the fork point, edits to either side never leak to the other,
// and both sides keep agreeing with full re-analyses of their own
// materialized designs — the copy-on-write contract Fork promises.
func TestSessionForkIndependence(t *testing.T) {
	d := randnet.DesignSeed(21, randnet.DefaultDesignConfig(3, 3))
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e4})
	base := s.Report()
	f := s.Fork()
	if got := f.Report(); got.WNS != base.WNS || got.TNS != base.TNS {
		t.Fatalf("fork WNS/TNS %g/%g, parent %g/%g", got.WNS, got.TNS, base.WNS, base.TNS)
	}
	// Edit the fork only: the parent must not move.
	if _, err := f.Apply([]Edit{{Op: "scaleDriver", Net: "l0n0", Factor: f64(3)}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Report(); got.WNS != base.WNS || got.TNS != base.TNS {
		t.Fatalf("parent moved after fork edit: WNS %g -> %g", base.WNS, got.WNS)
	}
	assertMatchesFull(t, f, 1e4)
	// Edit the parent on the same net (it must clone its shared tree first)
	// and on another net; the fork must not see either.
	forkRep := f.Report()
	if _, err := s.Apply([]Edit{
		{Op: "scaleDriver", Net: "l0n0", Factor: f64(0.5)},
		{Op: "setC", Net: "l1n1", Node: d.Nets[4].Tree.Name(d.Nets[4].Tree.Outputs()[0]), C: f64(9)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := f.Report(); got.WNS != forkRep.WNS || got.TNS != forkRep.TNS {
		t.Fatalf("fork moved after parent edit: WNS %g -> %g", forkRep.WNS, got.WNS)
	}
	assertMatchesFull(t, s, 1e4)
	assertMatchesFull(t, f, 1e4)
}

// TestSessionForkTrialMatchesCommit: applying a candidate to a fork predicts
// exactly what committing it to the parent produces — the what-if contract a
// closure engine relies on.
func TestSessionForkTrialMatchesCommit(t *testing.T) {
	d := randnet.DesignSeed(5, randnet.DefaultDesignConfig(3, 4))
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e3})
	edits := []Edit{{Op: "scaleDriver", Net: "l1n2", Factor: f64(0.4)}}
	trial := s.Fork()
	tres, err := trial.Apply(edits)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := s.Apply(edits)
	if err != nil {
		t.Fatal(err)
	}
	if tres.WNS != cres.WNS || tres.TNS != cres.TNS {
		t.Fatalf("trial WNS/TNS %g/%g vs commit %g/%g", tres.WNS, tres.TNS, cres.WNS, cres.TNS)
	}
}

// TestSessionForkConcurrentTrials: many forks of one parent Apply at the
// same time (the closure engine's evaluation pattern). Under -race this
// checks that forks only read what they share; functionally each trial must
// equal the same edit applied alone.
func TestSessionForkConcurrentTrials(t *testing.T) {
	d := randnet.DesignSeed(11, randnet.DefaultDesignConfig(4, 4))
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e3})
	const trials = 16
	factors := make([]float64, trials)
	want := make([]float64, trials)
	for i := range factors {
		factors[i] = 0.3 + 0.1*float64(i)
		f := s.Fork()
		res, err := f.Apply([]Edit{{Op: "scaleDriver", Net: "l2n1", Factor: f64(factors[i])}})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.WNS
	}
	forks := make([]*Session, trials)
	for i := range forks {
		forks[i] = s.Fork()
	}
	var wg sync.WaitGroup
	got := make([]float64, trials)
	errs := make([]error, trials)
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := forks[i].Apply([]Edit{{Op: "scaleDriver", Net: "l2n1", Factor: f64(factors[i])}})
			got[i], errs[i] = res.WNS, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < trials; i++ {
		if errs[i] != nil {
			t.Fatalf("trial %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("trial %d: concurrent WNS %g, isolated %g", i, got[i], want[i])
		}
	}
}

// TestSessionClosureAccessors covers the read surface the closure engine
// mines: input arrivals, the critical upstream cone, protected outputs, and
// per-net tree clones.
func TestSessionClosureAccessors(t *testing.T) {
	fast := simpleNet(t, "fast", 1, 1)
	slow := simpleNet(t, "slow", 100, 10)
	sink := simpleNet(t, "sink", 5, 2)
	d := &netlist.Design{
		Nets: []netlist.DesignNet{fast, slow, sink},
		Stages: []netlist.Stage{
			{FromNet: "fast", FromOutput: "o", ToNet: "sink", Delay: 1},
			{FromNet: "slow", FromOutput: "o", ToNet: "sink", Delay: 2},
		},
		Requires: []netlist.Require{{Net: "sink", Output: "o", Time: 10}},
	}
	s := newTestSession(t, d, Options{})
	if in, ok := s.InputArrival("fast"); !ok || in != (Interval{}) {
		t.Errorf("primary input arrival = %+v, %v", in, ok)
	}
	if in, ok := s.InputArrival("sink"); !ok || in.Max <= 0 {
		t.Errorf("sink input arrival = %+v, %v", in, ok)
	}
	if _, ok := s.InputArrival("ghost"); ok {
		t.Error("InputArrival on an unknown net should fail")
	}
	if cone := s.CriticalUpstream("sink"); len(cone) != 2 || cone[0] != "sink" || cone[1] != "slow" {
		t.Errorf("CriticalUpstream(sink) = %v, want [sink slow]", cone)
	}
	if cone := s.CriticalUpstream("ghost"); cone != nil {
		t.Errorf("CriticalUpstream(ghost) = %v", cone)
	}
	if got := s.ProtectedOutputs("slow"); len(got) != 1 || got[0] != "o" {
		t.Errorf("ProtectedOutputs(slow) = %v, want [o]", got)
	}
	cl, ok := s.CloneNetTree("slow")
	if !ok {
		t.Fatal("CloneNetTree(slow) failed")
	}
	// Editing the clone must not disturb the session.
	id, _ := cl.Lookup("o")
	if err := cl.SetResistance(id, 1e4); err != nil {
		t.Fatal(err)
	}
	before, _ := s.NetDelay("slow", "o")
	if _, err := s.Apply([]Edit{{Op: "setC", Net: "fast", Node: "o", C: f64(2)}}); err != nil {
		t.Fatal(err)
	}
	after, _ := s.NetDelay("slow", "o")
	if before != after {
		t.Errorf("slow delay moved after clone edit: %+v -> %+v", before, after)
	}
	if _, ok := s.CloneNetTree("ghost"); ok {
		t.Error("CloneNetTree on an unknown net should fail")
	}
}

// TestDrainGuardIgnoresRoundingResidue: the running capacitance aggregate
// of a net keeps rounding residue after edits (0.1 + 0.2 − 0.2 is not 0.1),
// so pruning the subtree that holds the last capacitance leaves a positive
// residue of about 3e-17 there. The edit must still be refused: a net with
// no capacitance cannot be materialized, so the session would no longer
// render a deck or a snapshot.
func TestDrainGuardIgnoresRoundingResidue(t *testing.T) {
	b := rctree.NewBuilder("in")
	a := b.Resistor(rctree.Root, "a", 1)
	c := b.Resistor(rctree.Root, "b", 1)
	b.Capacitor(a, 0.1)
	b.Capacitor(c, 0.2)
	b.Output(a)
	b.Output(c)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := &netlist.Design{Nets: []netlist.DesignNet{{Name: "n", Tree: tree}}}
	s := newTestSession(t, d, Options{Required: 10})
	if _, err := s.Apply([]Edit{{Op: "setC", Net: "n", Node: "b", C: f64(0)}}); err != nil {
		t.Fatal(err)
	}
	_, err = s.Apply([]Edit{{Op: "prune", Net: "n", Node: "a"}})
	if err == nil || !strings.Contains(err.Error(), "no capacitance") {
		t.Fatalf("prune of the last capacitance: err = %v, want a drain refusal", err)
	}
	if _, err := s.Design(); err != nil {
		t.Fatalf("session no longer materializes: %v", err)
	}
}

// TestApplyTreeEditGuards: the tree-level dispatcher refuses an edit that
// would drain a net's last capacitance or leave it without a designated
// output, whatever Net the edit names, and a refused edit leaves the tree's
// generation and its materialized form unchanged. The drain refusal takes
// the exact re-derivation path (the near-zero total), which must not count
// as a change either.
func TestApplyTreeEditGuards(t *testing.T) {
	b := rctree.NewBuilder("in")
	n1 := b.Resistor(rctree.Root, "n1", 10)
	a := b.Resistor(n1, "a", 5)
	bn := b.Resistor(n1, "b", 5)
	b.Capacitor(a, 2)
	b.Output(a)
	b.Output(bn)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		edit Edit
		want string
	}{
		{Edit{Op: "setC", Net: "ignored", Node: "a", C: f64(0)}, "no capacitance"},
		{Edit{Op: "addC", Node: "a", C: f64(-2)}, "no capacitance"},
		{Edit{Op: "prune", Node: "n1"}, "without designated outputs"},
		{Edit{Op: "prune", Node: "a"}, "no capacitance"},
		{Edit{Op: "removeOutput", Node: "n1"}, "not an output"},
		{Edit{Op: "setR", Node: "ghost", R: f64(1)}, `unknown node "ghost"`},
		{Edit{Op: "grow", Parent: "a", Name: "x", Kind: "wire", R: f64(1)}, "unknown edge kind"},
		{Edit{Op: "setR", Node: "a"}, `missing "r"`},
	} {
		et := incr.New(tree)
		want, _, _ := et.Materialize()
		if err := ApplyTreeEdit(et, tc.edit); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc.edit, err, tc.want)
		}
		got, _, _ := et.Materialize()
		if et.Gen() != 0 || netlist.Write(got) != netlist.Write(want) {
			t.Errorf("%+v: refused edit changed the tree (gen %d)", tc.edit, et.Gen())
		}
	}
	et := incr.New(tree)
	if err := ApplyTreeEdit(et, Edit{Op: "removeOutput", Node: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := ApplyTreeEdit(et, Edit{Op: "removeOutput", Node: "a"}); err == nil || !strings.Contains(err.Error(), "without designated outputs") {
		t.Errorf("removing the last output: err = %v", err)
	}
}

// TestAppendReportJSONNonFinite: a chain of 52 nets of about 3.47e306 each
// overflows the latest arrival to +Inf, which the JSON form cannot carry.
// The live renderer must fail exactly as the full one does, then recover
// once an edit brings the arrival back.
func TestAppendReportJSONNonFinite(t *testing.T) {
	d := &netlist.Design{}
	for i := range 52 {
		d.Nets = append(d.Nets, simpleNet(t, fmt.Sprint("n", i), 1, 5e306))
		if i > 0 {
			d.Stages = append(d.Stages, netlist.Stage{FromNet: fmt.Sprint("n", i-1), FromOutput: "o", ToNet: fmt.Sprint("n", i), Delay: 1})
		}
	}
	s := newTestSession(t, d, Options{Required: 10})
	_, want := s.Report().AppendJSON(nil, 0)
	if _, got := s.AppendReportJSON(nil, 0); want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("live error %v, full error %v: want the same unsupported-value error", got, want)
	}
	if _, err := s.Apply([]Edit{{Op: "setC", Net: "n0", Node: "o", C: f64(1)}}); err != nil {
		t.Fatal(err)
	}
	assertLiveReport(t, s, "after the overflow")
}
