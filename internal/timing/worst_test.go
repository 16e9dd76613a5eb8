package timing

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/incr"
	"repro/internal/netlist"
	"repro/internal/randnet"
)

// constrainedPrefix is the reference WorstEndpoints answer: the constrained
// prefix of the full report's endpoint table, cut to k.
func constrainedPrefix(r *Report, k int) []EndpointSlack {
	var out []EndpointSlack
	for _, ep := range r.Endpoints {
		if !ep.Constrained() || len(out) == k {
			break
		}
		out = append(out, ep)
	}
	return out
}

// assertWorstMatchesReport checks WorstEndpoints(k) against the report's
// constrained prefix for k = 1, 4 and more than the endpoint count.
func assertWorstMatchesReport(t *testing.T, s *Session, label string) {
	t.Helper()
	rep := s.Report()
	for _, k := range []int{1, 4, len(rep.Endpoints) + 1} {
		got, want := s.WorstEndpoints(k), constrainedPrefix(rep, k)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: WorstEndpoints(%d) =\n%+v\nreport prefix =\n%+v", label, k, got, want)
		}
	}
}

// assertTNSExact pins the one-state-one-TNS contract: the report's running
// fold and the session's per-net aggregates agree to the bit.
func assertTNSExact(t *testing.T, s *Session, res ApplyResult, label string) {
	t.Helper()
	rep := s.Report()
	wns, tns := s.Summary()
	if math.Float64bits(rep.TNS) != math.Float64bits(res.TNS) || math.Float64bits(tns) != math.Float64bits(res.TNS) {
		t.Fatalf("%s: Report TNS %v, ApplyResult TNS %v, Summary TNS %v", label, rep.TNS, res.TNS, tns)
	}
	if rep.WNS != res.WNS || wns != res.WNS {
		t.Fatalf("%s: Report WNS %v, ApplyResult WNS %v, Summary WNS %v", label, rep.WNS, res.WNS, wns)
	}
}

// worstDesign draws a small random design plus explicit .require cards on
// a random subset of outputs (interior ones included), with required times
// scattered around the median endpoint arrival so both passing and failing
// endpoints occur. It returns the design and that median, the default
// required time the caller may apply.
func worstDesign(t *testing.T, rng *rand.Rand) (*netlist.Design, float64) {
	t.Helper()
	d := randnet.Design(rng, diffDesignConfig(rng))
	rep, err := Analyze(context.Background(), d, Options{K: -1, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	arr := make([]float64, len(rep.Endpoints))
	for i, ep := range rep.Endpoints {
		arr[i] = ep.Arrival.Max
	}
	slices.Sort(arr)
	median := arr[len(arr)/2]
	for _, n := range d.Nets {
		for _, o := range n.Tree.Outputs() {
			if rng.Intn(4) == 0 {
				d.Requires = append(d.Requires, netlist.Require{
					Net: n.Name, Output: n.Tree.Name(o), Time: median * (0.5 + rng.Float64()),
				})
			}
		}
	}
	return d, median
}

// randomOutputEdit designates a fresh output or undesignates one on a
// random net; protected outputs may be drawn, and the caller skips the
// rejected edits.
func randomOutputEdit(rng *rand.Rand, s *Session) Edit {
	i := rng.Intn(len(s.trees))
	et := s.netTree(i)
	net := s.g.nodes[i].name
	if rng.Intn(2) == 0 {
		outs := et.Outputs()
		return Edit{Op: "removeOutput", Net: net, Node: et.Name(outs[rng.Intn(len(outs))])}
	}
	var nodes []string
	for id := 1; id < et.Slots(); id++ {
		if name := et.Name(incr.NodeID(id)); name != "" {
			nodes = append(nodes, name)
		}
	}
	return Edit{Op: "addOutput", Net: net, Node: nodes[rng.Intn(len(nodes))]}
}

// TestWorstEndpointsMatchesReportPrefix: over random designs with explicit
// requires, with and without a default required time, and random edit
// streams (every structural op included), WorstEndpoints always equals the
// constrained prefix of the full report, and Report's TNS equals the
// ApplyResult's to the bit.
func TestWorstEndpointsMatchesReportPrefix(t *testing.T) {
	designs, edits := 60, 25
	if testing.Short() {
		designs = 15
	}
	rng := rand.New(rand.NewSource(13))
	for n := 0; n < designs; n++ {
		d, median := worstDesign(t, rng)
		required := median
		if n%3 == 2 {
			required = 0 // only the explicit cards constrain
		}
		s := newTestSession(t, d, Options{Threshold: 0.6, Required: required})
		assertWorstMatchesReport(t, s, "initial")
		seq := 0
		for e := 0; e < edits; e++ {
			ed := randomEdit(rng, s, &seq)
			if rng.Intn(4) == 0 {
				ed = randomOutputEdit(rng, s)
			}
			res, err := s.Apply([]Edit{ed})
			if err != nil {
				continue // guarded edit: the session is unchanged
			}
			label := ed.Op + " on " + ed.Net
			assertTNSExact(t, s, res, label)
			assertWorstMatchesReport(t, s, label)
		}
	}
}

// TestTNSExactOnWorkloadShape pins Report().TNS == ApplyResult.TNS at the
// size where a running endpoint sum and the per-net fold used to part in the
// last bits: 240 nets, most endpoints failing.
func TestTNSExactOnWorkloadShape(t *testing.T) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(30)
	d := randnet.DesignSeed(10, cfg)
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e5})
	rng := rand.New(rand.NewSource(3))
	seq := 0
	for applied := 0; applied < 10; {
		ed := randomEdit(rng, s, &seq)
		res, err := s.Apply([]Edit{ed})
		if err != nil {
			continue
		}
		applied++
		assertTNSExact(t, s, res, ed.Op)
		assertWorstMatchesReport(t, s, ed.Op)
	}
}

// TestWorstEndpointsExplicitRequires: with no default required time only
// .require cards constrain, interior (stage-driving) outputs included; with
// no card either, nothing is constrained and the answer is empty.
func TestWorstEndpointsExplicitRequires(t *testing.T) {
	a := simpleNet(t, "a", 10, 1)
	b := simpleNet(t, "b", 20, 1)
	c := simpleNet(t, "c", 30, 1)
	d := &netlist.Design{
		Nets:   []netlist.DesignNet{a, b, c},
		Stages: []netlist.Stage{{FromNet: "a", FromOutput: "o", ToNet: "c", Delay: 1}},
	}
	for _, required := range []float64{0, -5} {
		s := newTestSession(t, d, Options{Required: required})
		if got := s.WorstEndpoints(4); len(got) != 0 {
			t.Fatalf("Required %g with no cards: WorstEndpoints = %+v, want empty", required, got)
		}
		assertWorstMatchesReport(t, s, "unconstrained")
	}
	d.Requires = []netlist.Require{
		{Net: "a", Output: "o", Time: 1}, // interior output, pinned
		{Net: "c", Output: "o", Time: 1e6},
	}
	s := newTestSession(t, d, Options{})
	got := s.WorstEndpoints(10)
	if len(got) != 2 || got[0].Net != "a" || got[1].Net != "c" {
		t.Fatalf("WorstEndpoints(10) = %+v, want the pinned a/o then c/o", got)
	}
	if got[0].Required != 1 || got[0].Slack >= 0 {
		t.Errorf("a/o: required %g slack %g, want 1 and negative", got[0].Required, got[0].Slack)
	}
	assertWorstMatchesReport(t, s, "explicit")
	if _, err := s.Apply([]Edit{{Op: "scaleDriver", Net: "a", Factor: f64(0.5)}}); err != nil {
		t.Fatal(err)
	}
	assertWorstMatchesReport(t, s, "explicit after edit")
	if got := s.WorstEndpoints(0); got != nil {
		t.Errorf("WorstEndpoints(0) = %+v, want nil", got)
	}
}

// TestWorstEndpointsTiesAcrossNets: identical nets tie exactly on slack and
// arrival, so names decide, and a k cut inside the tie keeps the
// lexicographically first endpoints, as the report does.
func TestWorstEndpointsTiesAcrossNets(t *testing.T) {
	var nets []netlist.DesignNet
	for _, name := range []string{"n4", "n2", "n0", "n3", "n1"} {
		nets = append(nets, simpleNet(t, name, 10, 2))
	}
	nets = append(nets, simpleNet(t, "slow", 50, 2))
	s := newTestSession(t, &netlist.Design{Nets: nets}, Options{Required: 10})
	got := s.WorstEndpoints(3)
	if len(got) != 3 || got[0].Net != "slow" || got[1].Net != "n0" || got[2].Net != "n1" {
		t.Fatalf("WorstEndpoints(3) = %+v, want slow, n0, n1", got)
	}
	assertWorstMatchesReport(t, s, "ties")
	// Break the tie on one net; the order must follow.
	if _, err := s.Apply([]Edit{{Op: "setR", Net: "n3", Node: "o", R: f64(20)}}); err != nil {
		t.Fatal(err)
	}
	if got := s.WorstEndpoints(2); got[1].Net != "n3" {
		t.Fatalf("after slowing n3: WorstEndpoints(2) = %+v, want slow, n3", got)
	}
	assertWorstMatchesReport(t, s, "ties after edit")
}

// TestWorstEndpointsWhileForksApply is the closure engine's access pattern
// under -race: trial forks Apply concurrently while the parent keeps
// answering WorstEndpoints and Summary, whose results must not move.
func TestWorstEndpointsWhileForksApply(t *testing.T) {
	d := randnet.DesignSeed(11, randnet.DefaultDesignConfig(4, 4))
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e3})
	want := s.WorstEndpoints(4)
	wantW, wantT := s.Summary()
	const trials = 8
	forks := make([]*Session, trials)
	for i := range forks {
		forks[i] = s.Fork()
	}
	var wg sync.WaitGroup
	errs := make([]error, trials)
	for i := range forks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net := s.g.nodes[i%len(s.g.nodes)].name
			_, errs[i] = forks[i].Apply([]Edit{{Op: "scaleDriver", Net: net, Factor: f64(0.3 + 0.1*float64(i))}})
			if errs[i] == nil {
				forks[i].WorstEndpoints(4)
			}
		}(i)
	}
	for r := 0; r < 20; r++ {
		if got := s.WorstEndpoints(4); !reflect.DeepEqual(got, want) {
			t.Fatalf("parent WorstEndpoints moved while forks applied: %+v", got)
		}
		if w, tns := s.Summary(); w != wantW || tns != wantT {
			t.Fatalf("parent Summary moved while forks applied: %g/%g", w, tns)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
}
