package timing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/randnet"
)

// diffDesignConfig draws a small random design shape so 300 of them stay
// fast while still covering chains, diamonds and multi-fanin merges.
func diffDesignConfig(rng *rand.Rand) randnet.DesignConfig {
	cfg := randnet.DefaultDesignConfig(1+rng.Intn(4), 1+rng.Intn(3))
	cfg.Net = randnet.DefaultConfig(4 + rng.Intn(10))
	cfg.FaninMax = 1 + rng.Intn(3)
	return cfg
}

// oracleNet is one net's state under the reference evaluation, keyed by
// output name.
type oracleNet struct {
	input Interval
	worst int
	delay map[string]Interval
	out   map[string]Interval
}

// oracleState times d the slow, obvious way, sharing no code with the arena
// kernel or the Session: level by level, each net's input arrival is the
// hull of its drivers' tapped output arrivals shifted by the gate delays,
// and core.Analyzer on the net's rctree.Tree gives every output's paper
// bounds, evaluated at th into [TMin, TMax].
func oracleState(t *testing.T, d *netlist.Design, th float64) (*Graph, []oracleNet) {
	t.Helper()
	g, err := NewGraph(d)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	an := core.NewAnalyzer()
	state := make([]oracleNet, len(g.nodes))
	for _, level := range g.levels {
		for _, i := range level {
			st := &state[i]
			st.worst = -1
			for ei, e := range g.nodes[i].fanin {
				cand := state[e.driver].out[e.output].add(e.delay)
				if ei == 0 {
					st.input, st.worst = cand, 0
					continue
				}
				if cand.Max > st.input.Max {
					st.worst = ei
				}
				st.input = st.input.hull(cand)
			}
			results, err := an.Analyze(g.nodes[i].tree)
			if err != nil {
				t.Fatalf("oracle: net %q: %v", g.nodes[i].name, err)
			}
			st.delay = make(map[string]Interval, len(results))
			st.out = make(map[string]Interval, len(results))
			for _, r := range results {
				dl := Interval{r.Bounds.TMin(th), r.Bounds.TMax(th)}
				st.delay[r.Name] = dl
				st.out[r.Name] = st.input.plus(dl)
			}
		}
	}
	return g, state
}

// oracleReport lists the oracle's endpoints with their arrivals and slacks,
// plus WNS and TNS, under the shared endpoint rule. Endpoints stay unsorted:
// assertReportsClose matches them by name.
func oracleReport(g *Graph, state []oracleNet, defRequired float64) *Report {
	rep := &Report{WNS: math.Inf(1)}
	for i := range g.nodes {
		for name, arr := range state[i].out {
			req, ok := g.endpointRequired(i, name, defRequired)
			if !ok {
				continue
			}
			ep := g.endpoint(i, name, arr, req)
			rep.WNS = math.Min(rep.WNS, ep.Slack)
			if ep.Slack < 0 {
				rep.TNS += ep.Slack
			}
			rep.Endpoints = append(rep.Endpoints, ep)
		}
	}
	return rep
}

// stateFor runs the full arena sweep of d across the given worker count (1
// is sequential; more is work-stealing, whatever GOMAXPROCS is).
func stateFor(t *testing.T, d *netlist.Design, th float64, workers int) []netTiming {
	t.Helper()
	g, err := NewGraph(d)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	state, err := g.computeState(context.Background(), resolved{th: th, workers: workers})
	if err != nil {
		t.Fatalf("computeState: %v", err)
	}
	return state
}

// assertStatesClose compares a working state against the oracle net by net
// — input interval, every output's delay and arrival interval, and the
// worst-fanin choice — to 1e-9.
func assertStatesClose(t *testing.T, g *Graph, got []netTiming, want []oracleNet, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: state length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		name := g.nodes[i].name
		gi, wi := &got[i], &want[i]
		if !intervalsClose(gi.input, wi.input) {
			t.Fatalf("%s: net %s input %+v vs %+v", label, name, gi.input, wi.input)
		}
		if gi.worst != wi.worst {
			t.Fatalf("%s: net %s worst fanin %d vs %d", label, name, gi.worst, wi.worst)
		}
		if len(gi.names) != len(wi.delay) || len(gi.delay) != len(gi.names) || len(gi.out) != len(gi.names) {
			t.Fatalf("%s: net %s output sets differ", label, name)
		}
		for j, out := range gi.names {
			wd, ok := wi.delay[out]
			if !ok || !intervalsClose(gi.delay[j], wd) {
				t.Fatalf("%s: net %s/%s delay %+v vs %+v", label, name, out, gi.delay[j], wd)
			}
			if wo := wi.out[out]; !intervalsClose(gi.out[j], wo) {
				t.Fatalf("%s: net %s/%s arrival %+v vs %+v", label, name, out, gi.out[j], wo)
			}
		}
	}
}

// assertReportsClose compares endpoint slacks, WNS and TNS between two full
// reports of the same design, keyed by endpoint (sorting may permute ties).
func assertReportsClose(t *testing.T, got, want *Report, label string) {
	t.Helper()
	if len(got.Endpoints) != len(want.Endpoints) {
		t.Fatalf("%s: endpoint count %d vs %d", label, len(got.Endpoints), len(want.Endpoints))
	}
	type key struct{ net, output string }
	byKey := map[key]EndpointSlack{}
	for _, e := range got.Endpoints {
		byKey[key{e.Net, e.Output}] = e
	}
	for _, w := range want.Endpoints {
		g, ok := byKey[key{w.Net, w.Output}]
		if !ok {
			t.Fatalf("%s: endpoint %s/%s missing", label, w.Net, w.Output)
		}
		if !intervalsClose(g.Arrival, w.Arrival) || !closeEnough(g.Slack, w.Slack) {
			t.Fatalf("%s: endpoint %s/%s arrival %+v slack %g vs %+v / %g",
				label, w.Net, w.Output, g.Arrival, g.Slack, w.Arrival, w.Slack)
		}
	}
	if !closeEnough(got.WNS, want.WNS) || !closeEnough(got.TNS, want.TNS) {
		t.Fatalf("%s: WNS/TNS %g/%g vs %g/%g", label, got.WNS, got.TNS, want.WNS, want.TNS)
	}
}

// TestDifferentialArenaVsOracle is the cross-check of the arena kernel: 300
// randomized designs propagated sequentially and work-stealing at 3 and 4
// workers must agree with the oracle on every net bound, arrival interval,
// endpoint slack, WNS and TNS to 1e-9.
func TestDifferentialArenaVsOracle(t *testing.T) {
	designs := 300
	if testing.Short() {
		designs = 60
	}
	rng := rand.New(rand.NewSource(20260807))
	ctx := context.Background()
	for n := 0; n < designs; n++ {
		d := randnet.Design(rng, diffDesignConfig(rng))
		th := 0.3 + rng.Float64()*0.5
		required := 0.0
		if rng.Intn(2) == 0 {
			required = 50 + rng.Float64()*1e3
		}
		g, want := oracleState(t, d, th)
		for _, workers := range []int{1, 3, 4} {
			got := stateFor(t, d, th, workers)
			assertStatesClose(t, g, got, want, fmt.Sprintf("design %d workers %d", n, workers))
		}
		// Reports, through the public entry point.
		gotRep, err := Analyze(ctx, d, Options{Threshold: th, Required: required, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		assertReportsClose(t, gotRep, oracleReport(g, want, required), fmt.Sprintf("design %d report", n))
	}
}

// assertSessionMatchesOracle materializes the session's current design and
// checks the session's incremental state and report against the oracle's
// from-scratch evaluation of it.
func assertSessionMatchesOracle(t *testing.T, s *Session, label string) {
	t.Helper()
	d, err := s.Design()
	if err != nil {
		t.Fatalf("%s: materialize: %v", label, err)
	}
	g, want := oracleState(t, d, s.th)
	assertStatesClose(t, s.g, s.state, want, label)
	assertReportsClose(t, s.Report(), oracleReport(g, want, s.required), label)
}

// TestDifferentialECO extends the oracle check through ECO editing: per
// design, 50 random edits are absorbed incrementally and after every edit
// the session state must agree with the oracle's evaluation of the
// materialized design. A forked session is spliced in along the way: the
// fork absorbs its own edit, must match the oracle on its own materialized
// design, and the parent must stay bit-identical.
func TestDifferentialECO(t *testing.T) {
	designs := 300
	edits := 50
	if testing.Short() {
		designs = 30
	}
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < designs; n++ {
		d := randnet.Design(rng, diffDesignConfig(rng))
		s := newTestSession(t, d, Options{Threshold: 0.6, Required: 200})
		seq := 0
		for e := 0; e < edits; e++ {
			ed := randomEdit(rng, s, &seq)
			if _, err := s.Apply([]Edit{ed}); err != nil {
				continue // guarded edit (drain, orphan...) — rejection is fine
			}
			assertSessionMatchesOracle(t, s, fmt.Sprintf("design %d edit %d", n, e))
			if e == edits/2 {
				// Fork differential: edit the fork, check it against the
				// oracle, and pin the parent unchanged.
				parentWNS, parentTNS := s.Summary()
				parentGen := s.Gen()
				f := s.Fork()
				fe := randomEdit(rng, f, &seq)
				if _, err := f.Apply([]Edit{fe}); err == nil {
					assertSessionMatchesOracle(t, f, fmt.Sprintf("design %d fork", n))
				}
				wns, tns := s.Summary()
				if wns != parentWNS || tns != parentTNS || s.Gen() != parentGen {
					t.Fatalf("design %d: fork edit leaked into parent", n)
				}
			}
		}
	}
}
