package core

import (
	"math"
	"testing"

	"repro/internal/rctree"
)

// buildFanout constructs a two-output fanout net: a shared driver resistor
// feeding a fast near output and a slow far output.
func buildFanout(t *testing.T) *rctree.Tree {
	t.Helper()
	b := rctree.NewBuilder("in")
	drv := b.Resistor(rctree.Root, "drv", 100)
	b.Capacitor(drv, 0.1)
	near := b.Resistor(drv, "near", 10)
	b.Capacitor(near, 0.2)
	far := b.Line(drv, "far", 500, 1.0)
	b.Capacitor(far, 0.3)
	b.Output(near)
	b.Output(far)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAnalyzeTree(t *testing.T) {
	tr := buildFanout(t)
	results, err := AnalyzeTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Name != "near" || results[1].Name != "far" {
		t.Errorf("results out of declaration order: %q, %q", results[0].Name, results[1].Name)
	}
	// TP is shared between outputs.
	if math.Abs(results[0].Times.TP-results[1].Times.TP) > 1e-9 {
		t.Errorf("TP differs between outputs: %g vs %g", results[0].Times.TP, results[1].Times.TP)
	}
	// The far output is slower by any measure.
	if results[0].Times.TD >= results[1].Times.TD {
		t.Errorf("near TD %g >= far TD %g", results[0].Times.TD, results[1].Times.TD)
	}
	if results[0].Bounds.TMax(0.5) >= results[1].Bounds.TMax(0.5) {
		t.Error("near output should certify faster than far output")
	}
}

func TestCriticalOutputs(t *testing.T) {
	tr := buildFanout(t)
	results, err := AnalyzeTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	crit := CriticalOutputs(results, 0.7)
	if crit[0].Name != "far" {
		t.Errorf("most critical output = %q, want far", crit[0].Name)
	}
	// The original slice must be untouched.
	if results[0].Name != "near" {
		t.Error("CriticalOutputs mutated its input")
	}
}

func TestDelayAndVoltageTables(t *testing.T) {
	b := MustNew(fig7Times)
	dt := b.DelayTable([]float64{0.1, 0.5, 0.9})
	if len(dt) != 3 {
		t.Fatalf("DelayTable rows = %d, want 3", len(dt))
	}
	for _, row := range dt {
		if row.TMin > row.TMax {
			t.Errorf("row %+v has TMin > TMax", row)
		}
	}
	vt := b.VoltageTable([]float64{20, 200, 2000})
	if len(vt) != 3 {
		t.Fatalf("VoltageTable rows = %d, want 3", len(vt))
	}
	for i := 1; i < len(vt); i++ {
		if vt[i].VMin < vt[i-1].VMin || vt[i].VMax < vt[i-1].VMax {
			t.Errorf("voltage table not monotone: %+v -> %+v", vt[i-1], vt[i])
		}
	}
}

func TestSampleCurves(t *testing.T) {
	b := MustNew(fig7Times)
	pts := b.SampleCurves(600, 60)
	if len(pts) != 61 {
		t.Fatalf("got %d points, want 61", len(pts))
	}
	if pts[0].T != 0 || math.Abs(pts[60].T-600) > 1e-12 {
		t.Errorf("sample range [%g, %g], want [0, 600]", pts[0].T, pts[60].T)
	}
	for _, p := range pts {
		if p.VMin > p.VMax {
			t.Errorf("at t=%g: vmin %g > vmax %g", p.T, p.VMin, p.VMax)
		}
		if p.VMinElmore > p.VMin+1e-12 {
			t.Errorf("at t=%g: Elmore bound above full bound", p.T)
		}
	}
	// Degenerate arguments fall back to sane defaults.
	if got := b.SampleCurves(-1, 0); len(got) != 2 {
		t.Errorf("degenerate sampling produced %d points", len(got))
	}
}

func TestEnvelopeWidth(t *testing.T) {
	b := MustNew(fig7Times)
	w := b.EnvelopeWidth(2000, 400)
	if w <= 0 || w >= 1 {
		t.Fatalf("EnvelopeWidth = %g, want in (0,1)", w)
	}
	// A driver-dominated net (most resistance in the pullup) has a much
	// tighter envelope — the paper's §I tightness remark.
	driver := MustNew(rctree.Times{TP: 101, TD: 100.5, TR: 100.2, Ree: 100})
	if dw := driver.EnvelopeWidth(600, 400); dw >= w {
		t.Errorf("driver-dominated envelope %g not tighter than wire-dominated %g", dw, w)
	}
}

func TestAnalyzeTreePropagatesErrors(t *testing.T) {
	// A tree whose output is corrupted to an invalid index must error.
	tr := buildFanout(t)
	if _, err := tr.CharacteristicTimes(rctree.NodeID(99)); err == nil {
		t.Error("expected characteristic-times error")
	}
}

// TestSkewThreshold: Skew has no default threshold, so it refuses every
// value outside the open interval (0,1), NaN and 0 included.
func TestSkewThreshold(t *testing.T) {
	results, err := AnalyzeTree(buildFanout(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"one", 1},
		{"negative", -0.1},
		{"zero", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Skew(results[0], results[1], tc.v); err == nil {
				t.Errorf("threshold %g accepted", tc.v)
			}
		})
	}
	if _, err := Skew(results[0], results[1], 0.7); err != nil {
		t.Errorf("threshold 0.7 refused: %v", err)
	}
}
