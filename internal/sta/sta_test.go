package sta

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mos"
	"repro/internal/rctree"
	"repro/internal/sim"
)

func fanoutNet(t *testing.T) *rctree.Tree {
	t.Helper()
	tr, err := mos.FanoutNet(mos.Superbuffer(),
		[]float64{90, 180, 540},
		[]float64{0.005, 0.01, 0.03},
		[]mos.Load{{Name: "g1", C: 0.013}, {Name: "g2", C: 0.013}, {Name: "g3", C: 0.013}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAnalyzeBasics(t *testing.T) {
	tr := fanoutNet(t)
	report, err := Analyze([]Net{{Name: "net1", Tree: tr, Threshold: 0.7, Deadline: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outputs) != 3 {
		t.Fatalf("outputs = %d, want 3", len(report.Outputs))
	}
	for _, o := range report.Outputs {
		if o.TMin > o.TMax {
			t.Errorf("%s: TMin %g > TMax %g", o.Output, o.TMin, o.TMax)
		}
		if math.Abs(o.Slack-(1000-o.TMax)) > 1e-12 {
			t.Errorf("%s: slack %g != deadline - TMax", o.Output, o.Slack)
		}
		if math.Abs(o.OptimisticSlack-(1000-o.TMin)) > 1e-12 {
			t.Errorf("%s: optimistic slack wrong", o.Output)
		}
		if math.Abs(o.Elmore-o.Times.TD) > 1e-9*(1+o.Times.TD) {
			t.Errorf("%s: Elmore %g != TD %g", o.Output, o.Elmore, o.Times.TD)
		}
	}
}

func TestCriticalOrdering(t *testing.T) {
	tr := fanoutNet(t)
	report, err := Analyze([]Net{{Name: "net1", Tree: tr, Threshold: 0.7, Deadline: 500}})
	if err != nil {
		t.Fatal(err)
	}
	crit := report.Critical()
	if crit[0].Output != "g3" {
		t.Errorf("worst-slack output = %q, want g3 (longest branch)", crit[0].Output)
	}
	for i := 1; i < len(crit); i++ {
		if crit[i].Slack < crit[i-1].Slack {
			t.Error("Critical not sorted by slack")
		}
	}
}

func TestVerdictsAgainstDeadline(t *testing.T) {
	tr := fanoutNet(t)
	// Find the g3 bounds to construct deadlines on each side.
	base, err := Analyze([]Net{{Name: "n", Tree: tr, Threshold: 0.7, Deadline: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var g3 OutputReport
	for _, o := range base.Outputs {
		if o.Output == "g3" {
			g3 = o
		}
	}
	cases := []struct {
		deadline float64
		want     core.Verdict
	}{
		{g3.TMax * 1.01, core.Passes},
		{g3.TMin * 0.5, core.Fails},
		{(g3.TMin + g3.TMax) / 2, core.Unknown},
	}
	for _, tc := range cases {
		rep, err := Analyze([]Net{{Name: "n", Tree: tr, Threshold: 0.7, Deadline: tc.deadline}})
		if err != nil {
			t.Fatal(err)
		}
		var got core.Verdict
		for _, o := range rep.Outputs {
			if o.Output == "g3" {
				got = o.Verdict
			}
		}
		if got != tc.want {
			t.Errorf("deadline %g: verdict %v, want %v", tc.deadline, got, tc.want)
		}
	}
}

func TestWorstVerdictAndCounts(t *testing.T) {
	tr := fanoutNet(t)
	// Deadline between g1's TMax and g3's TMin region: mixed verdicts.
	rep, err := Analyze([]Net{{Name: "n", Tree: tr, Threshold: 0.7, Deadline: 120}})
	if err != nil {
		t.Fatal(err)
	}
	p, u, f := rep.CountByVerdict()
	if p+u+f != 3 {
		t.Fatalf("counts %d+%d+%d != 3", p, u, f)
	}
	if rep.WorstVerdict() == core.Passes && (u > 0 || f > 0) {
		t.Error("WorstVerdict inconsistent with counts")
	}
	// A generous deadline passes everything.
	repPass, err := Analyze([]Net{{Name: "n", Tree: tr, Threshold: 0.7, Deadline: 1e7}})
	if err != nil {
		t.Fatal(err)
	}
	if repPass.WorstVerdict() != core.Passes {
		t.Errorf("generous deadline verdict = %v", repPass.WorstVerdict())
	}
	// An impossible deadline fails everything.
	repFail, err := Analyze([]Net{{Name: "n", Tree: tr, Threshold: 0.7, Deadline: 0.0001}})
	if err != nil {
		t.Fatal(err)
	}
	if repFail.WorstVerdict() != core.Fails {
		t.Errorf("impossible deadline verdict = %v", repFail.WorstVerdict())
	}
}

func TestMultiNet(t *testing.T) {
	tr1, tr2 := fanoutNet(t), fanoutNet(t)
	rep, err := Analyze([]Net{
		{Name: "fast", Tree: tr1, Threshold: 0.5, Deadline: 400},
		{Name: "slow", Tree: tr2, Threshold: 0.9, Deadline: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs) != 6 {
		t.Fatalf("outputs = %d, want 6", len(rep.Outputs))
	}
	// Higher threshold means later crossing: slow net's g3 is the critical one.
	crit := rep.Critical()
	if crit[0].Net != "slow" || crit[0].Output != "g3" {
		t.Errorf("critical = %s/%s, want slow/g3", crit[0].Net, crit[0].Output)
	}
}

func TestSummaryRendering(t *testing.T) {
	tr := fanoutNet(t)
	rep, err := Analyze([]Net{{Name: "net1", Tree: tr, Threshold: 0.7, Deadline: 500}})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{"net1", "g1", "g2", "g3", "verdict", "outputs:"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	tr := fanoutNet(t)
	cases := []struct {
		name string
		nets []Net
	}{
		{"empty", nil},
		{"nil tree", []Net{{Name: "x", Threshold: 0.5, Deadline: 1}}},
		{"bad threshold", []Net{{Name: "x", Tree: tr, Threshold: 0, Deadline: 1}}},
		{"threshold one", []Net{{Name: "x", Tree: tr, Threshold: 1, Deadline: 1}}},
		{"negative deadline", []Net{{Name: "x", Tree: tr, Threshold: 0.5, Deadline: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Analyze(tc.nets); err == nil {
				t.Error("Analyze succeeded, want error")
			}
		})
	}
}

// TestTightenWithSimulation runs the intended two-phase flow: bound-based
// certification first, exact simulation only for the undecided outputs.
func TestTightenWithSimulation(t *testing.T) {
	tr := fanoutNet(t)
	// Pick a deadline inside g3's uncertainty band so it comes back Unknown.
	base, err := Analyze([]Net{{Name: "n", Tree: tr, Threshold: 0.7, Deadline: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var g3 OutputReport
	for _, o := range base.Outputs {
		if o.Output == "g3" {
			g3 = o
		}
	}
	deadline := (g3.TMin + g3.TMax) / 2
	rep, err := Analyze([]Net{{Name: "n", Tree: tr, Threshold: 0.7, Deadline: deadline}})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the exact crossings.
	lumped, mapping, err := sim.Discretize(tr, 16)
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
	exact := make([]float64, len(rep.Outputs))
	for i, o := range rep.Outputs {
		id, _ := tr.Lookup(o.Output)
		ci, err := ckt.Index(mapping[id])
		if err != nil {
			t.Fatal(err)
		}
		exact[i] = resp.CrossingTime(ci, 0.7, 1e-12)
	}
	if err := rep.TightenWith(map[string]float64{"n": deadline}, exact); err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outputs {
		if o.Verdict == core.Unknown {
			t.Errorf("%s still unknown after tightening", o.Output)
		}
	}

	// Crossings outside the bounds are rejected.
	bad := make([]float64, len(rep.Outputs))
	for i := range bad {
		bad[i] = 1e12
	}
	rep2, _ := Analyze([]Net{{Name: "n", Tree: tr, Threshold: 0.7, Deadline: deadline}})
	if err := rep2.TightenWith(map[string]float64{"n": deadline}, bad); err == nil {
		t.Error("TightenWith accepted out-of-bounds crossing")
	}
	if err := rep2.TightenWith(map[string]float64{"n": deadline}, bad[:1]); err == nil {
		t.Error("TightenWith accepted wrong-length slice")
	}
}

// badThresholds are the switching thresholds every entry point must refuse:
// anything outside the open interval (0,1), NaN included. The sta entry
// points have no default, so 0 is refused too.
var badThresholds = []struct {
	name string
	v    float64
}{
	{"NaN", math.NaN()},
	{"+Inf", math.Inf(1)},
	{"-Inf", math.Inf(-1)},
	{"one", 1},
	{"negative", -0.1},
	{"zero", 0},
}

func TestNetValidateThreshold(t *testing.T) {
	tr := fanoutNet(t)
	for _, tc := range badThresholds {
		t.Run(tc.name, func(t *testing.T) {
			if err := (Net{Name: "x", Tree: tr, Threshold: tc.v, Deadline: 1}).Validate(); err == nil {
				t.Errorf("threshold %g accepted", tc.v)
			}
		})
	}
	if err := (Net{Name: "x", Tree: tr, Threshold: 0.7, Deadline: 1}).Validate(); err != nil {
		t.Errorf("threshold 0.7 refused: %v", err)
	}
}

func TestSkewThreshold(t *testing.T) {
	results, err := core.AnalyzeTree(fanoutNet(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range badThresholds {
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
