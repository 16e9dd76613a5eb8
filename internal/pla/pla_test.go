package pla

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/mos"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestFigure13HeadlineClaim verifies the paper's stated conclusion: "even
// with as many as a hundred minterms, the delay is guaranteed to be no worse
// than 10 nsec" at threshold 0.7·VDD.
func TestFigure13HeadlineClaim(t *testing.T) {
	pts, err := Sweep(PaperParams(), []int{100}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	tmaxNs := pts[0].TMax / 1000 // ps -> ns
	// We compute 10.04 ns; the paper reads "no worse than 10 nsec" off its
	// log-log plot, so we accept up to 1% over the round number
	// (EXPERIMENTS.md E6 records the exact figure).
	if tmaxNs > 10.1 {
		t.Errorf("TMax(100 minterms, 0.7) = %.2f ns, paper guarantees ~10 ns", tmaxNs)
	}
	// And it is not absurdly below: the log-log plot shows the upper bound
	// in the same decade.
	if tmaxNs < 1 {
		t.Errorf("TMax(100 minterms) = %.2f ns seems too small against Figure 13", tmaxNs)
	}
}

// TestOCRVariantAgrees: with the scanned APL's 0.0107/0.0134 pF readings
// instead of the prose's 0.01/0.013, the headline claim still holds —
// justifying the substitution note in DESIGN.md.
func TestOCRVariantAgrees(t *testing.T) {
	p := PaperParams()
	p.InterGateC, p.GateC = 0.0107, 0.0134
	pts, err := Sweep(p, []int{100}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// The OCR digits add ~7% capacitance, landing at 10.5 ns — the same
	// decade and conclusion as the prose values.
	if ns := pts[0].TMax / 1000; ns > 11 {
		t.Errorf("OCR-variant TMax(100) = %.2f ns, expected ~10 ns", ns)
	}
}

// TestQuadraticGrowth: Figure 13's log-log plot shows quadratic dependence
// of delay on minterm count for long lines. The ratio TMax(4n)/TMax(n) must
// approach 16 at the long-line end.
func TestQuadraticGrowth(t *testing.T) {
	pts, err := Sweep(PaperParams(), []int{25, 100, 200, 800}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	shortRatio := pts[1].TMax / pts[0].TMax // 100 vs 25
	longRatio := pts[3].TMax / pts[2].TMax  // 800 vs 200
	if longRatio < 12 || longRatio > 17 {
		t.Errorf("long-line TMax ratio for 4x minterms = %g, want ~16 (quadratic)", longRatio)
	}
	// At small n the driver dominates, so growth is milder.
	if shortRatio >= longRatio {
		t.Errorf("growth should steepen with line length: short %g, long %g", shortRatio, longRatio)
	}
}

// TestSweepMonotone: more minterms can only slow the line down.
func TestSweepMonotone(t *testing.T) {
	pts, err := Sweep(PaperParams(), DefaultMinterms(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("got %d points, want 50", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TMax <= pts[i-1].TMax || pts[i].TMin < pts[i-1].TMin {
			t.Fatalf("sweep not monotone at n=%d", pts[i].Minterms)
		}
	}
	for _, p := range pts {
		if p.TMin > p.TMax {
			t.Fatalf("n=%d: TMin %g > TMax %g", p.Minterms, p.TMin, p.TMax)
		}
		if err := p.Times.Validate(); err != nil {
			t.Fatalf("n=%d: %v", p.Minterms, err)
		}
	}
}

// TestExprMatchesAPLStructure: the PLALINE loop runs ceil(n/2) times, so the
// expression holds 2 driver URCs plus 2 per section.
func TestExprMatchesAPLStructure(t *testing.T) {
	for _, tc := range []struct{ n, urcs int }{
		{1, 2 + 2},
		{2, 2 + 2},
		{3, 2 + 4},
		{100, 2 + 100},
	} {
		e, err := Expr(PaperParams(), tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := algebra.Size(e); got != tc.urcs {
			t.Errorf("n=%d: %d URC primitives, want %d", tc.n, got, tc.urcs)
		}
	}
}

// TestTreeMatchesExpr: the rctree rendering of the PLA line gives the same
// characteristic times as the algebraic evaluation.
func TestTreeMatchesExpr(t *testing.T) {
	p := PaperParams()
	for _, n := range []int{2, 10, 100} {
		e, err := Expr(p, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Eval().Times()
		if err != nil {
			t.Fatal(err)
		}
		tr, out, err := Tree(p, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.CharacteristicTimes(out)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.TP-want.TP) > 1e-9*want.TP || math.Abs(got.TD-want.TD) > 1e-9*want.TD ||
			math.Abs(got.TR-want.TR) > 1e-9*want.TR {
			t.Errorf("n=%d: tree %+v != expr %+v", n, got, want)
		}
	}
}

// TestBoundsBracketSimulatedPLA: the exact simulated 0.7 crossing of a
// 40-minterm line falls inside [TMin, TMax]. (40 minterms at 4 segments per
// line keeps the eigenproblem small enough for the test suite; the bracket
// property is size independent.)
func TestBoundsBracketSimulatedPLA(t *testing.T) {
	p := PaperParams()
	tr, out, err := Tree(p, 40)
	if err != nil {
		t.Fatal(err)
	}
	lumped, mapping, err := sim.Discretize(tr, 4)
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
	i, err := ckt.Index(mapping[out])
	if err != nil {
		t.Fatal(err)
	}
	cross := resp.CrossingTime(i, 0.7, 1e-10)

	tm, err := tr.CharacteristicTimes(out)
	if err != nil {
		t.Fatal(err)
	}
	b := core.MustNew(tm)
	if cross < b.TMin(0.7) || cross > b.TMax(0.7) {
		t.Errorf("simulated crossing %g ps outside bounds [%g, %g]",
			cross, b.TMin(0.7), b.TMax(0.7))
	}
	// Figure 11-style sanity: the bound gap at 0.7 stays within a factor ~3.
	if b.TMax(0.7)/b.TMin(0.7) > 3 {
		t.Errorf("bounds unusually loose: [%g, %g]", b.TMin(0.7), b.TMax(0.7))
	}
}

// TestParamsFromTech: physics-derived element values stay near the paper's
// rounded ones and produce the same Figure 13 conclusion.
func TestParamsFromTech(t *testing.T) {
	p, err := ParamsFromTech(wire.PaperTech())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.InterGateR-180) > 1e-9 || math.Abs(p.GateR-30) > 1e-9 {
		t.Errorf("tech resistances = %g, %g; want 180, 30", p.InterGateR, p.GateR)
	}
	if math.Abs(p.InterGateC-0.01) > 0.15*0.01 || math.Abs(p.GateC-0.013) > 0.1*0.013 {
		t.Errorf("tech capacitances = %g, %g pF; want ~0.01, ~0.013", p.InterGateC, p.GateC)
	}
	pts, err := Sweep(p, []int{100}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// Physics-derived capacitances run ~10% above the paper's rounded pF
	// values, so the guarantee lands just over the round 10.
	if ns := pts[0].TMax / 1000; ns > 11 {
		t.Errorf("tech-derived TMax(100) = %.2f ns, want ~10 ns", ns)
	}
	if _, err := ParamsFromTech(wire.Tech{}); err == nil {
		t.Error("ParamsFromTech accepted invalid tech")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := Expr(Params{}, 10); err == nil {
		t.Error("Expr accepted zero params")
	}
	if _, err := Expr(PaperParams(), 0); err == nil {
		t.Error("Expr accepted zero minterms")
	}
	if _, err := Sweep(PaperParams(), []int{10}, 0); err == nil {
		t.Error("Sweep accepted threshold 0")
	}
	if _, err := Sweep(PaperParams(), []int{10}, 1); err == nil {
		t.Error("Sweep accepted threshold 1")
	}
	if _, err := Sweep(PaperParams(), []int{0}, 0.5); err == nil {
		t.Error("Sweep accepted bad minterm count")
	}
	bad := PaperParams()
	bad.GateC = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative GateC validated")
	}
	zero := Params{Driver: mos.Driver{}}
	_ = zero
}

// TestSweepRejectsBadThreshold: thresholds outside (0,1) are refused, NaN
// included (a plain threshold <= 0 || threshold >= 1 test lets NaN through
// and the sweep prints NaN bounds).
func TestSweepRejectsBadThreshold(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, -0.1} {
		if _, err := Sweep(PaperParams(), []int{2, 4}, v); err == nil {
			t.Errorf("threshold %g accepted", v)
		}
	}
}
