package wal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/incr"
	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/timing"
)

// TestRecoveryProperty pins the package invariant: for any edit sequence
// and any snapshot schedule, recovering from disk (newest snapshot parsed
// into a fresh session, log tail replayed) reproduces the live session's
// every net bound, arrival and slack to 1e-9. Each accepted edit is
// appended exactly as rcserve does — under the same lock as Apply, log
// order equal to apply order — and snapshots rotate at random points.
func TestRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runRecoveryTrial(t, seed)
		})
	}
}

func runRecoveryTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := randnet.DesignConfig{
		Levels:   3,
		Width:    3,
		Net:      randnet.DefaultConfig(8 + rng.Intn(8)),
		FaninMax: 3,
		DelayMax: 10,
	}
	design := randnet.Design(rng, cfg)
	opt := timing.Options{Threshold: 0.7, Required: 1e4, Sequential: true}

	live, err := timing.NewSession(context.Background(), design, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := fmt.Sprintf("prop-%d", seed)
	l, err := st.Create(id, netlist.WriteDesign(design), Meta{
		Threshold: opt.Threshold, Required: opt.Required, K: opt.K,
	})
	if err != nil {
		t.Fatal(err)
	}

	total, accepted := 40+rng.Intn(60), 0
	for i := 0; i < total; i++ {
		e := randomSessionEdit(rng, live, design, i)
		if _, err := live.Apply([]timing.Edit{e}); err != nil {
			continue // rejected edits never reach the log
		}
		accepted++
		if err := l.Append([]timing.Edit{e}); err != nil {
			t.Fatalf("append edit %d: %v", i, err)
		}
		if rng.Float64() < 0.15 {
			deck, err := live.AppendDeck(nil)
			if err != nil {
				t.Fatalf("materialize at edit %d: %v", i, err)
			}
			if err := l.Rotate(deck, accepted); err != nil {
				t.Fatalf("rotate at edit %d: %v", i, err)
			}
		}
	}
	l.Close() // crash point: the process is gone, only the files remain

	rec, l2, err := st.Recover(id)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.TornBytes != 0 {
		t.Fatalf("clean shutdown recovered torn bytes: %d", rec.TornBytes)
	}
	recDesign, err := netlist.ParseDesign(rec.Deck)
	if err != nil {
		t.Fatalf("parse recovered snapshot: %v", err)
	}
	replayed, err := timing.NewSession(context.Background(), recDesign, timing.Options{
		Threshold: rec.Meta.Threshold, Required: rec.Meta.Required,
		K: rec.Meta.K, Sequential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Edits) > 0 {
		if _, err := replayed.Apply(rec.Edits); err != nil {
			t.Fatalf("replay log tail: %v", err)
		}
	}
	compareSessions(t, live, replayed, design)
}

// compareSessions asserts the replayed session matches the live one on
// WNS/TNS, every endpoint arrival and slack, and every net's input arrival
// and per-output delay bounds, to 1e-9.
func compareSessions(t *testing.T, live, replayed *timing.Session, design *netlist.Design) {
	t.Helper()
	const tol = 1e-9
	lr, rr := live.Report(), replayed.Report()
	if !close2(lr.WNS, rr.WNS, tol) || !close2(lr.TNS, rr.TNS, tol) {
		t.Errorf("WNS/TNS: live (%g, %g), replayed (%g, %g)", lr.WNS, lr.TNS, rr.WNS, rr.TNS)
	}
	if len(lr.Endpoints) != len(rr.Endpoints) {
		t.Fatalf("endpoint count: live %d, replayed %d", len(lr.Endpoints), len(rr.Endpoints))
	}
	for i, le := range lr.Endpoints {
		re := rr.Endpoints[i]
		if le.Net != re.Net || le.Output != re.Output {
			t.Fatalf("endpoint %d: live %s.%s, replayed %s.%s", i, le.Net, le.Output, re.Net, re.Output)
		}
		if !close2(le.Arrival.Min, re.Arrival.Min, tol) || !close2(le.Arrival.Max, re.Arrival.Max, tol) ||
			!close2(le.Slack, re.Slack, tol) {
			t.Errorf("endpoint %s.%s: live arr [%g, %g] slack %g, replayed arr [%g, %g] slack %g",
				le.Net, le.Output, le.Arrival.Min, le.Arrival.Max, le.Slack,
				re.Arrival.Min, re.Arrival.Max, re.Slack)
		}
	}
	for _, dn := range design.Nets {
		la, lok := live.InputArrival(dn.Name)
		ra, rok := replayed.InputArrival(dn.Name)
		if lok != rok || (lok && (!close2(la.Min, ra.Min, tol) || !close2(la.Max, ra.Max, tol))) {
			t.Errorf("net %s input arrival: live [%g, %g] %v, replayed [%g, %g] %v",
				dn.Name, la.Min, la.Max, lok, ra.Min, ra.Max, rok)
		}
		et, ok := live.ViewNetTree(dn.Name)
		if !ok {
			continue
		}
		for _, o := range et.Outputs() {
			name := et.Name(o)
			ld, lok := live.NetDelay(dn.Name, name)
			rd, rok := replayed.NetDelay(dn.Name, name)
			if lok != rok || (lok && (!close2(ld.Min, rd.Min, tol) || !close2(ld.Max, rd.Max, tol))) {
				t.Errorf("net %s output %s delay: live [%g, %g] %v, replayed [%g, %g] %v",
					dn.Name, name, ld.Min, ld.Max, lok, rd.Min, rd.Max, rok)
			}
		}
	}
}

func close2(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// randomSessionEdit draws one ECO edit addressed through the session's
// exported surfaces alone: net names from the design, node names by walking
// the net's EditTree view from the root.
func randomSessionEdit(rng *rand.Rand, s *timing.Session, design *netlist.Design, seq int) timing.Edit {
	net := design.Nets[rng.Intn(len(design.Nets))].Name
	et, ok := s.ViewNetTree(net)
	if !ok {
		return timing.Edit{Op: "scaleDriver", Net: net, Factor: f64(1.1)}
	}
	nodes := treeNodes(et)
	pick := func() string { return et.Name(nodes[rng.Intn(len(nodes))]) }
	switch rng.Intn(7) {
	case 0:
		return timing.Edit{Op: "setR", Net: net, Node: pick(), R: f64(0.1 + 10*rng.Float64())}
	case 1:
		return timing.Edit{Op: "setC", Net: net, Node: pick(), C: f64(0.1 + 5*rng.Float64())}
	case 2:
		return timing.Edit{Op: "addC", Net: net, Node: pick(), C: f64(0.5 * rng.Float64())}
	case 3:
		return timing.Edit{Op: "setLine", Net: net, Node: pick(),
			R: f64(0.1 + 10*rng.Float64()), C: f64(0.1 + 5*rng.Float64())}
	case 4:
		return timing.Edit{Op: "scaleDriver", Net: net, Factor: f64(0.5 + rng.Float64())}
	case 5:
		return timing.Edit{Op: "grow", Net: net, Parent: pick(),
			Name: fmt.Sprintf("w%d", seq), Kind: "resistor",
			R: f64(0.1 + 10*rng.Float64())}
	default:
		return timing.Edit{Op: "prune", Net: net, Node: pick()}
	}
}

// treeNodes collects every live node id reachable from the root.
func treeNodes(et *incr.EditTree) []incr.NodeID {
	ids := []incr.NodeID{incr.Root}
	for i := 0; i < len(ids); i++ {
		ids = append(ids, et.Children(ids[i])...)
	}
	return ids
}
