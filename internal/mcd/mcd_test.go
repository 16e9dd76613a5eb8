package mcd

import (
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/stats"
	"repro/internal/timing"
)

// sortDist is the sort-based summary the selection path replaced, kept as
// its oracle: moments in the given order, quantiles from a full sort.
func sortDist(vals []float64) Dist {
	var w stats.Welford
	for _, v := range vals {
		w.Add(v)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return distSorted(&w, sorted)
}

// sortSlackDist is sortDist over the slacks req − arr[s], given sorted, a
// sorted copy of arr, which it overwrites by the reversal mirrorSlack
// makes: the oracle's one sort per endpoint for both distributions.
func sortSlackDist(req float64, arr, sorted []float64) Dist {
	var w stats.Welford
	for _, x := range arr {
		w.Add(req - x)
	}
	mirrorSlack(req, sorted)
	return distSorted(&w, sorted)
}

// sameDist compares two Dists bit for bit, so NaN equals NaN and −0 does
// not equal +0.
func sameDist(a, b Dist) bool {
	x := []float64{a.Mean, a.Std, a.Min, a.Max, a.P50, a.P95, a.P99}
	y := []float64{b.Mean, b.Std, b.Min, b.Max, b.P50, b.P95, b.P99}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

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
			Threshold: th, Required: req,
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
				distClose(t, "WNS dist", *cr.WNS, sortDist(wns), 1e-9)
			}
			distClose(t, "TNS dist", cr.TNS, sortDist(tns), 1e-9)
			// Endpoint distributions and criticality counts, matched by key
			// (the report is re-sorted by nominal slack).
			wantByKey := map[[2]string]EndpointDist{}
			for e, ep := range eps {
				want := EndpointDist{
					Arrival:     sortDist(arr[e]),
					Criticality: float64(critCount[e]) / samples,
				}
				if !math.IsInf(ep.Required, 1) {
					sd := sortDist(slack[e])
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
// reports at any worker count — workers write disjoint sample rows and every
// statistic reduces in sample order. The sweep runs min(GOMAXPROCS, samples)
// workers, so GOMAXPROCS sets the count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	d := testDesign(t, 11, 5, 3)
	opt := Options{
		Samples: 24, Seed: 5, Variation: Variation{RSigma: 0.08, CSigma: 0.05},
		Threshold: 0.55, Required: 500,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, err := Analyze(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{3, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := Analyze(context.Background(), d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: report diverged from the one-worker report", procs)
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
		Required: 400,
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
	high := Options{Samples: 50, Seed: 2, Variation: Variation{RSigma: 0.9, CSigma: 0.9}, Required: 300}
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

// TestSlackDistFromOneSort: the slack Dist the production path derives
// from the arrivals' one selection (moments over the slacks, selectRanks on
// the arrivals, mirrorSlack) equals sortDist over the slack column bit for
// bit, and so does the oracle's one-sort path, on random columns with ties
// and negative values, at sizes from 1 to 257.
func TestSlackDistFromOneSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 32, 257} {
		ranks := quantileRanks(n)
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
			var w stats.Welford
			for s, x := range arr {
				slack[s] = req - x
				w.Add(slack[s])
			}
			want := sortDist(slack)
			sorted := append([]float64(nil), arr...)
			sort.Float64s(sorted)
			if got := sortSlackDist(req, arr, sorted); got != want {
				t.Errorf("n=%d trial %d req %g: oracle one-sort slack dist %+v, sortDist %+v", n, trial, req, got, want)
			}
			col := append([]float64(nil), arr...)
			selectRanks(col, ranks)
			mirrorSlack(req, col)
			if got := distSorted(&w, col); !sameDist(got, want) {
				t.Errorf("n=%d trial %d req %g: selected slack dist %+v, sortDist %+v", n, trial, req, got, want)
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
	opt := Options{Samples: samples, Seed: 3, Variation: v, Threshold: 0.6, Required: 300}
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
			if got := sortDist(arr[e]); ed.Arrival != got {
				t.Errorf("corner %s %s/%s: arrival %+v, two-sort %+v", c.Name, ed.Net, ed.Output, ed.Arrival, got)
			}
			if ed.Slack == nil {
				t.Fatalf("corner %s %s/%s: constrained endpoint without slack dist", c.Name, ed.Net, ed.Output)
			}
			if got := sortDist(slack[e]); *ed.Slack != got {
				t.Errorf("corner %s %s/%s: slack %+v, two-sort %+v", c.Name, ed.Net, ed.Output, *ed.Slack, got)
			}
		}
	}
}

// oracleReport is AnalyzeGraph as it stood before the selection path, kept
// as its oracle: per corner, one sequential pass per sample on a single
// VarArena, each endpoint's gathered arrival column summarized by sortDist
// and sortSlackDist, and a stable sort of the finished rows.
func oracleReport(t *testing.T, g *timing.Graph, name string, opt Options) *Report {
	t.Helper()
	ctx := context.Background()
	opt, err := opt.resolve()
	if err != nil {
		t.Fatal(err)
	}
	va, err := g.VarArena(opt.Threshold, opt.Required)
	if err != nil {
		t.Fatal(err)
	}
	eps := va.Endpoints()
	samples := opt.Samples
	rF, cF, clipped := drawFactors(va.Nets(), samples, opt.Variation, opt.Seed)
	rep := &Report{
		Design: name, Threshold: va.Threshold(), Samples: samples,
		Seed: opt.Seed, Variation: opt.Variation, Clipped: clipped,
	}
	pass := func(c Corner, rNet, cNet []float64) {
		if err := va.SetFactors(c.RScale, c.CScale, rNet, cNet); err != nil {
			t.Fatal(err)
		}
		if err := va.Propagate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	worst := math.Inf(1)
	for _, c := range opt.Corners {
		pass(c, nil, nil)
		cr := CornerResult{Corner: c, NominalWNS: math.Inf(1)}
		rows := make([]EndpointDist, len(eps))
		for e, ep := range eps {
			rows[e] = EndpointDist{
				Net: ep.Net, Output: ep.Output, Required: ep.Required,
				NominalArrival: va.Arrival(ep.Slot).Max, NominalSlack: va.Slack(ep),
			}
			if sl := rows[e].NominalSlack; !math.IsInf(ep.Required, 1) {
				if sl < cr.NominalWNS {
					cr.NominalWNS = sl
				}
				if sl < 0 {
					cr.NominalTNS += sl
				}
			}
		}
		arr := make([][]float64, len(eps))
		wns, tns := make([]float64, samples), make([]float64, samples)
		critCount := make([]int, len(eps))
		constrained := false
		for s := 0; s < samples; s++ {
			var rNet, cNet []float64
			if rF != nil {
				rNet = rF[s]
			}
			if cF != nil {
				cNet = cF[s]
			}
			pass(c, rNet, cNet)
			sWNS, sCrit := math.Inf(1), -1
			for e, ep := range eps {
				arr[e] = append(arr[e], va.Arrival(ep.Slot).Max)
				if sl := va.Slack(ep); !math.IsInf(ep.Required, 1) {
					if sl < sWNS {
						sWNS, sCrit = sl, e
					}
					if sl < 0 {
						tns[s] += sl
					}
				}
			}
			wns[s] = sWNS
			if sCrit >= 0 {
				critCount[sCrit]++
				constrained = true
			}
		}
		if constrained {
			d := sortDist(wns)
			cr.WNS = &d
		}
		cr.TNS = sortDist(tns)
		for e, ep := range eps {
			rows[e].Arrival = sortDist(arr[e])
			rows[e].Criticality = float64(critCount[e]) / float64(samples)
			if !math.IsInf(ep.Required, 1) {
				sorted := append([]float64(nil), arr[e]...)
				sort.Float64s(sorted)
				d := sortSlackDist(ep.Required, arr[e], sorted)
				rows[e].Slack = &d
			}
		}
		slices.SortStableFunc(rows, func(a, b EndpointDist) int {
			switch {
			case a.NominalSlack != b.NominalSlack:
				return cmp.Compare(a.NominalSlack, b.NominalSlack)
			case a.NominalArrival != b.NominalArrival:
				return cmp.Compare(b.NominalArrival, a.NominalArrival)
			case a.Net != b.Net:
				return strings.Compare(a.Net, b.Net)
			}
			return strings.Compare(a.Output, b.Output)
		})
		cr.Endpoints = rows
		rep.Corners = append(rep.Corners, cr)
		if cr.NominalWNS < worst {
			worst, rep.WorstCorner = cr.NominalWNS, c.Name
		}
	}
	return rep
}

// floatBits mirrors v with every float64 replaced by its bits, so that
// reflect.DeepEqual on two mirrors is bit-for-bit equality: NaN equals NaN
// and −0 does not equal +0.
func floatBits(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float64:
		return math.Float64bits(v.Float())
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		return []any{floatBits(v.Elem())}
	case reflect.Struct:
		out := make([]any, v.NumField())
		for i := range out {
			out[i] = floatBits(v.Field(i))
		}
		return out
	case reflect.Slice:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = floatBits(v.Index(i))
		}
		return out
	}
	return v.Interface()
}

// TestAnalyzeMatchesSortOracle: AnalyzeGraph's selection-based statistics
// and its rank-indexed row writes give reports bit-identical to the
// sort-based oracle, over random designs, sample counts around the
// selection's cutoffs and GOMAXPROCS worker counts that split the endpoints
// unevenly.
// The designs mix constrained and unconstrained endpoints; zero sigma makes
// every column one tied value, and 0.9 sigma clips draws into ties.
func TestAnalyzeMatchesSortOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	variations := []Variation{{}, {RSigma: 0.05}, {RSigma: 0.3, CSigma: 0.2}, {RSigma: 0.9, CSigma: 0.9}}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		d := testDesign(t, 100+seed, 2+rng.Intn(3), 1+rng.Intn(4))
		opt := Options{
			Variation: variations[seed%4], Seed: seed,
			Threshold: 0.3 + 0.5*rng.Float64(),
		}
		g, err := timing.NewGraph(d)
		if err != nil {
			t.Fatal(err)
		}
		if seed%3 != 0 {
			// Constrain about half the endpoints, on either side of their
			// arrivals; the rest stay unconstrained.
			va, err := g.VarArena(opt.Threshold, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range va.Endpoints() {
				if rng.Intn(2) == 0 {
					at := va.Arrival(ep.Slot).Max
					d.Requires = append(d.Requires, netlist.Require{Net: ep.Net, Output: ep.Output, Time: at * (0.5 + rng.Float64())})
				}
			}
			if g, err = timing.NewGraph(d); err != nil {
				t.Fatal(err)
			}
		}
		if seed%6 == 3 {
			opt.Required = 1e9 // every endpoint constrained, none failing
		}
		for _, samples := range []int{1, 2, 3, 12, 13, 31, 32, 33, 256} {
			opt.Samples = samples
			want := floatBits(reflect.ValueOf(oracleReport(t, g, d.Name, opt)))
			for _, procs := range []int{1, 2, 3, 5} {
				runtime.GOMAXPROCS(procs)
				rep, err := AnalyzeGraph(context.Background(), g, d.Name, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := floatBits(reflect.ValueOf(rep)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d samples %d GOMAXPROCS %d: report differs from the sort-based oracle", seed, samples, procs)
				}
			}
		}
	}
}

// FuzzSelectRanks: on any column of 1 to 300 values, ties, ±0, ±Inf and
// NaN included, selectRanks leaves a permutation of the column that holds,
// at each rank quantileRanks names and at each rank of an arbitrary set,
// the value sort.Float64s puts there, bit for bit. An even first byte reads
// the rest as raw float64 bits; an odd one reads each byte as an index into
// a palette of specials, which makes ties the rule.
func FuzzSelectRanks(f *testing.F) {
	palette := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, 2.5, 1e308, -5e-324, 7, 7, 3e5}
	f.Add([]byte{1, 5, 6, 7, 5, 6, 12, 10, 11, 12, 5}, uint64(0))
	f.Add([]byte{3, 0, 1, 2, 3, 0, 1, 9, 8, 7, 6, 5, 6, 7, 8, 9, 10, 11, 12, 2, 3, 5, 6}, uint64(1)<<63|5)
	f.Add(append([]byte{0}, make([]byte, 8*40)...), uint64(0xffff))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		if len(data) == 0 {
			return
		}
		var col []float64
		if data[0]%2 == 0 {
			for b := data[1:]; len(b) >= 8 && len(col) < 300; b = b[8:] {
				col = append(col, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		} else {
			for _, b := range data[1:min(len(data), 301)] {
				col = append(col, palette[int(b)%len(palette)])
			}
		}
		n := len(col)
		if n == 0 {
			return
		}
		want := slices.Clone(col)
		sort.Float64s(want)
		var masked []int
		for r := range n {
			if mask>>(r%64)&1 == 1 {
				masked = append(masked, r)
			}
		}
		for _, ranks := range [][]int{quantileRanks(n), masked} {
			got := slices.Clone(col)
			selectRanks(got, ranks)
			for _, r := range ranks {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("n=%d ranks %v: rank %d holds %v, sort.Float64s %v", n, ranks, r, got[r], want[r])
				}
			}
			if !slices.Equal(sortedBits(got), sortedBits(col)) {
				t.Fatalf("n=%d ranks %v: the result is not a permutation of the column", n, ranks)
			}
		}
	})
}

// sortedBits returns the bits of vals, sorted: equal for two permutations
// of one column.
func sortedBits(vals []float64) []uint64 {
	b := make([]uint64, len(vals))
	for i, v := range vals {
		b[i] = math.Float64bits(v)
	}
	slices.Sort(b)
	return b
}
