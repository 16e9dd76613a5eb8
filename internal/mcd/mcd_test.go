package mcd

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/timing"
)

func testDesign(t *testing.T, seed int64, levels, width int) *netlist.Design {
	t.Helper()
	return randnet.Design(rand.New(rand.NewSource(seed)), randnet.DefaultDesignConfig(levels, width))
}

func uniform(n int, v float64) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = v
	}
	return f
}

// distClose compares every field of two Dists relative to the reference's
// magnitude, |got − want| ≤ tol·max(1, |want|): values with |want| ≤ 1 are
// judged absolutely, and a TNS of millions is not held to a few ulps.
func distClose(t *testing.T, ctxt string, got, want Dist, tol float64) {
	t.Helper()
	pairs := [][2]float64{
		{got.Mean, want.Mean}, {got.Std, want.Std},
		{got.Min, want.Min}, {got.Max, want.Max},
		{got.P50, want.P50}, {got.P95, want.P95}, {got.P99, want.P99},
	}
	names := []string{"mean", "std", "min", "max", "p50", "p95", "p99"}
	for i, p := range pairs {
		if math.Abs(p[0]-p[1]) > tol*math.Max(1, math.Abs(p[1])) {
			t.Errorf("%s: %s = %.15g, want %.15g", ctxt, names[i], p[0], p[1])
		}
	}
}

// TestCornerSweepMatchesFullReanalysis is the tentpole soundness property:
// for several seeds, every corner×sample of the arena sweep must agree — to
// 1e-9 — with an independent full timing.Analyze of a netlist whose element
// values were explicitly rebuilt with the same factors, including the WNS/TNS
// distributions and the per-endpoint criticality counts.
func TestCornerSweepMatchesFullReanalysis(t *testing.T) {
	ctx := context.Background()
	const th, req = 0.6, 350.0
	const samples = 6
	v := Variation{RSigma: 0.06, CSigma: 0.09}
	for _, seed := range []int64{1, 2, 7} {
		d := testDesign(t, seed, 4, 2)
		rep, err := Analyze(ctx, d, Options{
			Samples: samples, Seed: seed, Variation: v,
			Threshold: th, Required: req, Sequential: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The reference replays the exact factor stream and endpoint order the
		// sweep used.
		g, err := timing.NewGraph(d)
		if err != nil {
			t.Fatal(err)
		}
		va, err := g.VarArena(th, req)
		if err != nil {
			t.Fatal(err)
		}
		eps := va.Endpoints()
		rF, cF, _ := drawFactors(len(d.Nets), samples, v, seed)
		for ci, c := range DefaultCorners() {
			cr := &rep.Corners[ci]
			if cr.Corner != c {
				t.Fatalf("seed %d: corner %d is %+v, want %+v", seed, ci, cr.Corner, c)
			}
			// Nominal: corner scales only.
			nomD, err := ScaleDesign(d, uniform(len(d.Nets), c.RScale), uniform(len(d.Nets), c.CScale))
			if err != nil {
				t.Fatal(err)
			}
			nomRep, err := timing.Analyze(ctx, nomD, timing.Options{Threshold: th, Required: req, K: -1, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cr.NominalWNS-nomRep.WNS) > 1e-9 || math.Abs(cr.NominalTNS-nomRep.TNS) > 1e-9 {
				t.Errorf("seed %d corner %s: nominal WNS/TNS %g/%g, full analysis %g/%g",
					seed, c.Name, cr.NominalWNS, cr.NominalTNS, nomRep.WNS, nomRep.TNS)
			}
			// Per-sample full re-analysis of the explicitly-scaled netlist.
			arr := make([][]float64, len(eps))
			slack := make([][]float64, len(eps))
			for e := range eps {
				arr[e] = make([]float64, samples)
				slack[e] = make([]float64, samples)
			}
			wns := make([]float64, samples)
			tns := make([]float64, samples)
			critCount := make([]int, len(eps))
			for s := 0; s < samples; s++ {
				rf := uniform(len(d.Nets), c.RScale)
				cf := uniform(len(d.Nets), c.CScale)
				for i := range rf {
					if rF != nil {
						rf[i] *= rF[s][i]
					}
					if cF != nil {
						cf[i] *= cF[s][i]
					}
				}
				sd, err := ScaleDesign(d, rf, cf)
				if err != nil {
					t.Fatal(err)
				}
				sRep, err := timing.Analyze(ctx, sd, timing.Options{Threshold: th, Required: req, K: -1, Sequential: true})
				if err != nil {
					t.Fatal(err)
				}
				byKey := map[[2]string]timing.EndpointSlack{}
				for _, e := range sRep.Endpoints {
					byKey[[2]string{e.Net, e.Output}] = e
				}
				sWNS, sCrit := math.Inf(1), -1
				for e, ep := range eps {
					ref, ok := byKey[[2]string{ep.Net, ep.Output}]
					if !ok {
						t.Fatalf("endpoint %s/%s missing from scaled analysis", ep.Net, ep.Output)
					}
					arr[e][s] = ref.Arrival.Max
					slack[e][s] = ref.Slack
					if !math.IsInf(ep.Required, 1) {
						if ref.Slack < sWNS {
							sWNS, sCrit = ref.Slack, e
						}
						if ref.Slack < 0 {
							tns[s] += ref.Slack
						}
					}
				}
				wns[s] = sWNS
				if sCrit >= 0 {
					critCount[sCrit]++
				}
			}
			if cr.WNS != nil {
				distClose(t, "WNS dist", *cr.WNS, distOf(wns, nil), 1e-9)
			}
			distClose(t, "TNS dist", cr.TNS, distOf(tns, nil), 1e-9)
			// Endpoint distributions and criticality counts, matched by key
			// (the report is re-sorted by nominal slack).
			wantByKey := map[[2]string]EndpointDist{}
			for e, ep := range eps {
				want := EndpointDist{
					Arrival:     distOf(arr[e], nil),
					Criticality: float64(critCount[e]) / samples,
				}
				if !math.IsInf(ep.Required, 1) {
					sd := distOf(slack[e], nil)
					want.Slack = &sd
				}
				wantByKey[[2]string{ep.Net, ep.Output}] = want
			}
			for _, e := range cr.Endpoints {
				want, ok := wantByKey[[2]string{e.Net, e.Output}]
				if !ok {
					t.Fatalf("report endpoint %s/%s not in reference", e.Net, e.Output)
				}
				ctxt := "seed " + string(rune('0'+seed)) + " corner " + c.Name + " " + e.Net + "/" + e.Output
				distClose(t, ctxt+" arrival", e.Arrival, want.Arrival, 1e-9)
				if (e.Slack == nil) != (want.Slack == nil) {
					t.Errorf("%s: slack dist presence mismatch", ctxt)
				} else if e.Slack != nil {
					distClose(t, ctxt+" slack", *e.Slack, *want.Slack, 1e-9)
				}
				if e.Criticality != want.Criticality {
					t.Errorf("%s: criticality %g, reference %g", ctxt, e.Criticality, want.Criticality)
				}
			}
		}
	}
}

// TestDeterministicAcrossWorkers: one seed must produce bit-identical
// reports at any worker count, including the sequential path — workers write
// disjoint sample columns and all statistics reduce sequentially.
func TestDeterministicAcrossWorkers(t *testing.T) {
	d := testDesign(t, 11, 5, 3)
	opt := Options{
		Samples: 24, Seed: 5, Variation: Variation{RSigma: 0.08, CSigma: 0.05},
		Threshold: 0.55, Required: 500,
	}
	base := opt
	base.Sequential = true
	want, err := Analyze(context.Background(), d, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		o := opt
		o.Workers = workers
		got, err := Analyze(context.Background(), d, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: report diverged from sequential baseline", workers)
		}
	}
}

// TestCriticalityIsDistribution: criticality sums to 1 over each corner's
// endpoints (every sample has exactly one WNS endpoint when anything is
// constrained), and is reported per endpoint.
func TestCriticalityIsDistribution(t *testing.T) {
	d := testDesign(t, 3, 4, 3)
	rep, err := Analyze(context.Background(), d, Options{
		Samples: 40, Seed: 9, Variation: Variation{RSigma: 0.1, CSigma: 0.1},
		Required: 400, Sequential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Corners {
		if cr.WNS == nil {
			t.Fatalf("corner %s unconstrained; test design should have endpoints", cr.Corner.Name)
		}
		total := 0.0
		for _, e := range cr.Endpoints {
			if e.Criticality < 0 || e.Criticality > 1 {
				t.Errorf("criticality %g outside [0,1]", e.Criticality)
			}
			total += e.Criticality
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("corner %s: criticalities sum to %g, want 1", cr.Corner.Name, total)
		}
	}
}

// TestClippedSharedAcrossCorners: the factor draws (and so the clip count)
// are made once per sample set and shared by every corner; at absurd sigma
// the count is nonzero and identical whatever the corner list.
func TestClippedSharedAcrossCorners(t *testing.T) {
	d := testDesign(t, 4, 3, 2)
	high := Options{Samples: 50, Seed: 2, Variation: Variation{RSigma: 0.9, CSigma: 0.9}, Required: 300, Sequential: true}
	rep, err := Analyze(context.Background(), d, high)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clipped == 0 {
		t.Error("90% sigma clipped no draws")
	}
	one := high
	one.Corners = []Corner{{Name: "typ", RScale: 1, CScale: 1}}
	rep1, err := Analyze(context.Background(), d, one)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Clipped != rep.Clipped {
		t.Errorf("clip count depends on corner list: %d vs %d", rep1.Clipped, rep.Clipped)
	}
}

func TestOptionValidation(t *testing.T) {
	d := testDesign(t, 1, 2, 2)
	ctx := context.Background()
	nan, inf := math.NaN(), math.Inf(1)
	corner := func(r, c float64) []Corner { return []Corner{{Name: "bad", RScale: r, CScale: c}} }
	for _, tc := range []struct {
		name string
		opt  Options
		want string // substring of the error
	}{
		{"negative samples", Options{Samples: -1}, "samples"},
		{"negative sigma", Options{Variation: Variation{RSigma: -0.1}}, "rSigma"},
		{"NaN rSigma", Options{Variation: Variation{RSigma: nan}}, "rSigma must be finite"},
		{"+Inf rSigma", Options{Variation: Variation{RSigma: inf}}, "rSigma must be finite"},
		{"NaN cSigma", Options{Variation: Variation{CSigma: nan}}, "cSigma must be finite"},
		{"-Inf cSigma", Options{Variation: Variation{CSigma: -inf}}, "cSigma must be finite"},
		{"zero corner scale", Options{Corners: corner(0, 1)}, `corner "bad" rScale`},
		{"NaN corner rScale", Options{Corners: corner(nan, 1)}, `corner "bad" rScale must be finite`},
		{"+Inf corner cScale", Options{Corners: corner(1, inf)}, `corner "bad" cScale must be finite`},
		{"empty corner list", Options{Corners: []Corner{}}, "empty corner list"},
		{"threshold 1.2", Options{Threshold: 1.2}, "threshold"},
	} {
		_, err := Analyze(ctx, d, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestScaleDesignValidation(t *testing.T) {
	d := testDesign(t, 1, 2, 2)
	if _, err := ScaleDesign(d, make([]float64, 1), nil); err == nil && len(d.Nets) != 1 {
		t.Error("short rf accepted")
	}
	// Identity scaling reproduces the analysis exactly.
	sd, err := ScaleDesign(d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := timing.Analyze(context.Background(), d, timing.Options{Required: 300, K: -1, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := timing.Analyze(context.Background(), sd, timing.Options{Required: 300, K: -1, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Endpoints, b.Endpoints) {
		t.Error("identity ScaleDesign changed the analysis")
	}
}

// TestSlackDistFromOneSort: the slack Dist derived from the arrivals' one
// sorted copy equals distOf over the slack column bit for bit, on random
// columns with ties and negative values, at sizes from 1 to 257.
func TestSlackDistFromOneSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 32, 257} {
		for trial := 0; trial < 50; trial++ {
			arr := make([]float64, n)
			for s := range arr {
				switch trial % 3 {
				case 0: // heavy ties
					arr[s] = float64(rng.Intn(4)) - 1.5
				case 1: // wide spread around zero
					arr[s] = 1e3 * rng.NormFloat64()
				default: // tiny spread on a large offset: rounding collides
					arr[s] = 2.5e6 + 1e-9*float64(rng.Intn(8))
				}
			}
			req := []float64{0, -3.25, 700, 2.5e6}[trial%4]
			slack := make([]float64, n)
			for s, x := range arr {
				slack[s] = req - x
			}
			want := distOf(slack, nil)
			sorted := append([]float64(nil), arr...)
			sort.Float64s(sorted)
			if got := slackDistOf(req, arr, sorted); got != want {
				t.Errorf("n=%d trial %d req %g: one-sort slack dist %+v, distOf %+v", n, trial, req, got, want)
			}
		}
	}
}

// TestReportSlackDistsMatchTwoSorts: on one design, every endpoint's arrival
// and slack Dist in the report equals distOf over the columns replayed on the
// same VarArena — the report the one-sort statistics produce is the report a
// separate slack sort produces, bit for bit.
func TestReportSlackDistsMatchTwoSorts(t *testing.T) {
	ctx := context.Background()
	d := testDesign(t, 6, 4, 3)
	const samples = 33
	v := Variation{RSigma: 0.07, CSigma: 0.04}
	opt := Options{Samples: samples, Seed: 3, Variation: v, Threshold: 0.6, Required: 300, Sequential: true}
	rep, err := Analyze(ctx, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := timing.NewGraph(d)
	if err != nil {
		t.Fatal(err)
	}
	va, err := g.VarArena(opt.Threshold, opt.Required)
	if err != nil {
		t.Fatal(err)
	}
	eps := va.Endpoints()
	rF, cF, _ := drawFactors(va.Nets(), samples, v, opt.Seed)
	for ci, c := range DefaultCorners() {
		arr := make([][]float64, len(eps))
		slack := make([][]float64, len(eps))
		for s := 0; s < samples; s++ {
			if err := va.SetFactors(c.RScale, c.CScale, rF[s], cF[s]); err != nil {
				t.Fatal(err)
			}
			if err := va.Propagate(ctx); err != nil {
				t.Fatal(err)
			}
			for e, ep := range eps {
				arr[e] = append(arr[e], va.Arrival(ep.Slot).Max)
				slack[e] = append(slack[e], va.Slack(ep))
			}
		}
		want := map[[2]string]int{}
		for e, ep := range eps {
			want[[2]string{ep.Net, ep.Output}] = e
		}
		for _, ed := range rep.Corners[ci].Endpoints {
			e := want[[2]string{ed.Net, ed.Output}]
			if got := distOf(arr[e], nil); ed.Arrival != got {
				t.Errorf("corner %s %s/%s: arrival %+v, two-sort %+v", c.Name, ed.Net, ed.Output, ed.Arrival, got)
			}
			if ed.Slack == nil {
				t.Fatalf("corner %s %s/%s: constrained endpoint without slack dist", c.Name, ed.Net, ed.Output)
			}
			if got := distOf(slack[e], nil); *ed.Slack != got {
				t.Errorf("corner %s %s/%s: slack %+v, two-sort %+v", c.Name, ed.Net, ed.Output, *ed.Slack, got)
			}
		}
	}
}
