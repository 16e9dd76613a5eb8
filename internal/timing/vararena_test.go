package timing

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/rctree"
)

// scaleTestDesign rebuilds every tree of d with per-net multiplicative R/C
// factors — the independent reference the VarArena sweep must reproduce.
func scaleTestDesign(t *testing.T, d *netlist.Design, rf, cf []float64) *netlist.Design {
	t.Helper()
	out := &netlist.Design{Name: d.Name, Stages: d.Stages, Requires: d.Requires}
	for i := range d.Nets {
		tr := d.Nets[i].Tree
		b := rctree.NewBuilder(tr.Name(rctree.Root))
		ids := map[rctree.NodeID]rctree.NodeID{rctree.Root: rctree.Root}
		tr.Walk(func(id rctree.NodeID) {
			if id == rctree.Root {
				if c := tr.NodeCap(id); c > 0 {
					b.Capacitor(rctree.Root, c*cf[i])
				}
				return
			}
			kind, r, c := tr.Edge(id)
			switch kind {
			case rctree.EdgeResistor:
				ids[id] = b.Resistor(ids[tr.Parent(id)], tr.Name(id), r*rf[i])
			case rctree.EdgeLine:
				ids[id] = b.Line(ids[tr.Parent(id)], tr.Name(id), r*rf[i], c*cf[i])
			default:
				t.Fatalf("unexpected edge kind at %q", tr.Name(id))
			}
			if nc := tr.NodeCap(id); nc > 0 {
				b.Capacitor(ids[id], nc*cf[i])
			}
		})
		for _, o := range tr.Outputs() {
			b.Output(ids[o])
		}
		st, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out.Nets = append(out.Nets, netlist.DesignNet{Name: d.Nets[i].Name, Tree: st})
	}
	return out
}

// TestVarArenaNominalMatchesAnalyze: with all factors 1 the variation view
// must reproduce the full analysis bit for bit — same endpoints, same
// arrivals, same slacks.
func TestVarArenaNominalMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := randnet.Design(rng, randnet.DefaultDesignConfig(4, 3))
	g, err := NewGraph(d)
	if err != nil {
		t.Fatal(err)
	}
	const th, req = 0.6, 400.0
	rep, err := g.Analyze(context.Background(), Options{Threshold: th, Required: req, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	va, err := g.VarArena(th, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := va.SetFactors(1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := va.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	eps := va.Endpoints()
	if len(eps) != len(rep.Endpoints) {
		t.Fatalf("VarArena has %d endpoints, report has %d", len(eps), len(rep.Endpoints))
	}
	byKey := map[[2]string]EndpointSlack{}
	for _, e := range rep.Endpoints {
		byKey[[2]string{e.Net, e.Output}] = e
	}
	for _, ep := range eps {
		want, ok := byKey[[2]string{ep.Net, ep.Output}]
		if !ok {
			t.Fatalf("endpoint %s/%s not in report", ep.Net, ep.Output)
		}
		if ep.Required != want.Required {
			t.Errorf("%s/%s required = %g, report %g", ep.Net, ep.Output, ep.Required, want.Required)
		}
		if got := va.Arrival(ep.Slot); got != want.Arrival {
			t.Errorf("%s/%s arrival = %+v, report %+v", ep.Net, ep.Output, got, want.Arrival)
		}
		if got := va.Slack(ep); got != want.Slack && !(math.IsInf(got, 1) && math.IsInf(want.Slack, 1)) {
			t.Errorf("%s/%s slack = %g, report %g", ep.Net, ep.Output, got, want.Slack)
		}
	}
}

// TestVarArenaScaledMatchesScaledDesign: global + per-net factors applied
// through SetFactors (λ-scaled nominal delays) must match a from-scratch
// analysis of a design whose element values were explicitly rebuilt with
// those factors, to 1e-9·max(1, |want|). 32 random designs, half of them
// with 30-node nets, all with distributed lines; per-net factors include the
// 0.01 clip floor mcd applies, and the global scales span 0.5–2. This is the
// homogeneity proof the mcd property test builds on.
func TestVarArenaScaledMatchesScaledDesign(t *testing.T) {
	ctx := context.Background()
	scales := []float64{0.5, 0.85, 1.15, 2}
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	for seed := int64(1); seed <= 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randnet.DefaultDesignConfig(2+rng.Intn(4), 1+rng.Intn(4))
		if seed%2 == 0 {
			cfg.Net = randnet.DefaultConfig(30)
		}
		d := randnet.Design(rng, cfg)
		g, err := NewGraph(d)
		if err != nil {
			t.Fatal(err)
		}
		th, req := 0.1+0.8*rng.Float64(), 50+500*rng.Float64()
		va, err := g.VarArena(th, req)
		if err != nil {
			t.Fatal(err)
		}
		rNet := make([]float64, len(d.Nets))
		cNet := make([]float64, len(d.Nets))
		for i := range rNet {
			rNet[i] = math.Max(0.01, 1+0.3*rng.NormFloat64())
			cNet[i] = math.Max(0.01, 1+0.3*rng.NormFloat64())
		}
		rNet[0] = 0.01 // the clip floor, on a primary input
		cNet[len(cNet)-1] = 0.01
		for k, rScale := range scales {
			cScale := scales[(k+1)%len(scales)]
			if err := va.SetFactors(rScale, cScale, rNet, cNet); err != nil {
				t.Fatal(err)
			}
			if err := va.Propagate(ctx); err != nil {
				t.Fatal(err)
			}
			// Reference: rebuild the trees with the combined factors baked in.
			rf := make([]float64, len(d.Nets))
			cf := make([]float64, len(d.Nets))
			for i := range rf {
				rf[i] = rScale * rNet[i]
				cf[i] = cScale * cNet[i]
			}
			rep, err := Analyze(ctx, scaleTestDesign(t, d, rf, cf), Options{Threshold: th, Required: req, K: -1})
			if err != nil {
				t.Fatal(err)
			}
			byKey := map[[2]string]EndpointSlack{}
			for _, e := range rep.Endpoints {
				byKey[[2]string{e.Net, e.Output}] = e
			}
			for _, ep := range va.Endpoints() {
				want := byKey[[2]string{ep.Net, ep.Output}]
				got := va.Arrival(ep.Slot)
				if !near(got.Min, want.Arrival.Min) || !near(got.Max, want.Arrival.Max) {
					t.Errorf("seed %d scales %g/%g %s/%s: arrival = %+v, scaled-design analysis %+v",
						seed, rScale, cScale, ep.Net, ep.Output, got, want.Arrival)
				}
				if s := va.Slack(ep); !math.IsInf(s, 1) && !near(s, want.Slack) {
					t.Errorf("seed %d scales %g/%g %s/%s: slack = %g, scaled-design analysis %g",
						seed, rScale, cScale, ep.Net, ep.Output, s, want.Slack)
				}
			}
		}
	}
}

// TestVarArenaPropagateAllocs pins one Monte Carlo sample — SetFactors with
// per-net factors plus Propagate — at zero allocations.
func TestVarArenaPropagateAllocs(t *testing.T) {
	g, err := NewGraph(randnet.Design(rand.New(rand.NewSource(9)), randnet.DefaultDesignConfig(4, 3)))
	if err != nil {
		t.Fatal(err)
	}
	va, err := g.VarArena(0.5, 300)
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, va.Nets())
	for i := range f {
		f[i] = 1 + 0.01*float64(i%5)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if err := va.SetFactors(1.15, 0.85, f, f); err != nil {
			t.Fatal(err)
		}
		if err := va.Propagate(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SetFactors + Propagate allocates %.1f times per sample, want 0", allocs)
	}
}

// TestVarArenaCloneIndependence: clones propagate different factors without
// disturbing each other or the parent, and resetting to nominal recovers the
// baseline — the reuse pattern of a Monte Carlo worker loop.
func TestVarArenaCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randnet.Design(rng, randnet.DefaultDesignConfig(3, 2))
	g, err := NewGraph(d)
	if err != nil {
		t.Fatal(err)
	}
	va, err := g.VarArena(0.5, 200)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := va.SetFactors(1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := va.Propagate(ctx); err != nil {
		t.Fatal(err)
	}
	eps := va.Endpoints()
	base := make([]float64, len(eps))
	for i, ep := range eps {
		base[i] = va.Arrival(ep.Slot).Max
	}
	cl := va.Clone()
	if err := cl.SetFactors(2, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.Propagate(ctx); err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		if got := cl.Arrival(ep.Slot).Max; got <= base[i] {
			t.Errorf("clone at 2x factors: endpoint %d arrival %g not above base %g", i, got, base[i])
		}
		// Parent state untouched by the clone's sweep.
		if got := va.Arrival(ep.Slot).Max; got != base[i] {
			t.Errorf("parent arrival %g changed by clone propagation (want %g)", got, base[i])
		}
	}
	// Back to nominal on the clone: must land exactly on the parent baseline.
	if err := cl.SetFactors(1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.Propagate(ctx); err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		if got := cl.Arrival(ep.Slot).Max; got != base[i] {
			t.Errorf("clone reset to nominal: endpoint %d arrival %g, want %g", i, got, base[i])
		}
	}
	// Factor-slice length validation.
	if err := va.SetFactors(1, 1, make([]float64, 1), nil); err == nil && len(d.Nets) != 1 {
		t.Error("short rNet accepted")
	}
	if _, err := g.VarArena(1.5, 0); err == nil {
		t.Error("threshold 1.5 accepted")
	}
}
