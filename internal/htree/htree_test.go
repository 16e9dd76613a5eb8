package htree

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func paperishConfig(levels int) Config {
	// §V-flavored numbers: superbuffer driver, poly trunk (ohms / pF).
	return Config{
		Levels: levels,
		TrunkR: 720, TrunkC: 0.044,
		DriverR: 380, DriverC: 0.04,
		LeafC: 0.013,
	}
}

func TestBuildShape(t *testing.T) {
	for _, levels := range []int{0, 1, 3} {
		tr, err := Build(paperishConfig(levels))
		if err != nil {
			t.Fatalf("levels %d: %v", levels, err)
		}
		if got, want := len(tr.Outputs()), Leaves(levels); got != want {
			t.Errorf("levels %d: %d outputs, want %d", levels, got, want)
		}
	}
	if Leaves(4) != 16 {
		t.Errorf("Leaves(4) = %d", Leaves(4))
	}
}

// TestSymmetry: every leaf of a symmetric clock tree sees identical
// characteristic times — a strong differential test of the timing engine
// across 2^k structurally distinct paths.
func TestSymmetry(t *testing.T) {
	tr, err := Build(paperishConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.AnalyzeTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	first := results[0].Times
	for _, r := range results[1:] {
		if math.Abs(r.Times.TD-first.TD) > 1e-9*first.TD ||
			math.Abs(r.Times.TR-first.TR) > 1e-9*first.TR ||
			math.Abs(r.Times.Ree-first.Ree) > 1e-9*first.Ree {
			t.Fatalf("asymmetric leaf %q: %+v vs %+v", r.Name, r.Times, first)
		}
	}
}

// TestSkewBounds: symmetric leaves have a zero-centered skew interval, and
// the certified worst skew equals the single-leaf uncertainty window.
func TestSkewBounds(t *testing.T) {
	tr, err := Build(paperishConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.AnalyzeTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := core.Skew(results[0], results[1], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sb.Min+sb.Max) > 1e-9*(1+math.Abs(sb.Max)) {
		t.Errorf("symmetric skew interval not centered: [%g, %g]", sb.Min, sb.Max)
	}
	window := results[0].Bounds.TMax(0.5) - results[0].Bounds.TMin(0.5)
	if math.Abs(sb.Max-window) > 1e-9*(1+window) {
		t.Errorf("skew max %g != uncertainty window %g", sb.Max, window)
	}
	worst, err := core.WorstSkew(results, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(worst-window) > 1e-9*(1+window) {
		t.Errorf("WorstSkew %g != window %g", worst, window)
	}
	// True skew of the symmetric tree is exactly zero: verify by exact
	// simulation that both leaves cross together.
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
	i0, _ := ckt.Index(mapping[results[0].Output])
	i1, _ := ckt.Index(mapping[results[1].Output])
	c0 := resp.CrossingTime(i0, 0.5, 1e-12)
	c1 := resp.CrossingTime(i1, 0.5, 1e-12)
	if math.Abs(c0-c1) > 1e-6*(1+c0) {
		t.Errorf("exact crossings differ on symmetric tree: %g vs %g", c0, c1)
	}
	// And the exact skew (0) sits inside the certified interval.
	if 0 < sb.Min || 0 > sb.Max {
		t.Error("true skew outside certified interval")
	}
}

// TestAsymmetricSkewDetected: unbalancing one leaf load shifts the skew
// interval off center.
func TestAsymmetricSkewDetected(t *testing.T) {
	cfg := paperishConfig(2)
	tr, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Config cannot express one unbalanced leaf, so slow one leaf's times
	// through core directly.
	results, err := core.AnalyzeTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate asymmetry by comparing a leaf against itself with a slower
	// bound evaluator (scaled times — what an added load would do).
	slowTimes := results[0].Times
	slowTimes.TP *= 1.3
	slowTimes.TD *= 1.3
	slowTimes.TR *= 1.3
	slow, err := core.New(slowTimes)
	if err != nil {
		t.Fatal(err)
	}
	slowRes := core.Result{Output: results[0].Output, Name: "slow", Times: slowTimes, Bounds: slow}
	sb, err := core.Skew(slowRes, results[1], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Min+sb.Max <= 0 {
		t.Errorf("slowed leaf should shift skew interval positive: [%g, %g]", sb.Min, sb.Max)
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Levels: -1, TrunkR: 1, DriverR: 1},
		{Levels: 9, TrunkR: 1, DriverR: 1},
		{Levels: 1, TrunkR: 0, DriverR: 1},
		{Levels: 1, TrunkR: 1, DriverR: 0},
		{Levels: 1, TrunkR: 1, DriverR: 1, LeafC: -1},
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := core.Skew(core.Result{}, core.Result{}, 0); err == nil {
		t.Error("skew threshold 0 accepted")
	}
	if _, err := core.WorstSkew(nil, 0.5); err == nil {
		t.Error("WorstSkew on empty accepted")
	}
}

// TestDeeperTreesAreSlower: adding levels adds wire and load, so the leaf
// delay bound grows monotonically with depth.
func TestDeeperTreesAreSlower(t *testing.T) {
	var prev float64
	for levels := 0; levels <= 5; levels++ {
		tr, err := Build(paperishConfig(levels))
		if err != nil {
			t.Fatal(err)
		}
		results, err := core.AnalyzeTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		tmax := results[0].Bounds.TMax(0.5)
		if tmax <= prev {
			t.Errorf("levels %d: TMax %g not greater than previous %g", levels, tmax, prev)
		}
		prev = tmax
	}
}
