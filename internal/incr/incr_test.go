package incr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/randnet"
	"repro/internal/rctree"
)

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

func timesClose(t *testing.T, got, want rctree.Times, tol float64, context string) {
	t.Helper()
	for _, f := range []struct {
		name string
		a, b float64
	}{
		{"TP", got.TP, want.TP},
		{"TD", got.TD, want.TD},
		{"TR", got.TR, want.TR},
		{"Ree", got.Ree, want.Ree},
	} {
		if !relClose(f.a, f.b, tol) {
			t.Fatalf("%s: %s incremental=%g full=%g (rel err %g)",
				context, f.name, f.a, f.b, math.Abs(f.a-f.b)/math.Max(math.Abs(f.b), 1))
		}
	}
}

// fullTimes recomputes output e from scratch by materializing the overlay
// into a fresh immutable tree and running the O(n) analysis on it.
func fullTimes(t *testing.T, et *EditTree, e NodeID) rctree.Times {
	t.Helper()
	mt, mapping, err := et.Materialize()
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	tm, err := mt.CharacteristicTimes(mapping[e])
	if err != nil {
		t.Fatalf("full recompute: %v", err)
	}
	return tm
}

func ladder(t *testing.T, n int) *rctree.Tree {
	t.Helper()
	return randnet.Ladder(n, float64(n), float64(n)/2)
}

// TestNewMatchesAnalysis: a fresh overlay answers exactly what the immutable
// analysis answers, for every output of assorted random trees.
func TestNewMatchesAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		tr := randnet.Tree(rng, randnet.DefaultConfig(1+rng.Intn(60)))
		et := New(tr)
		for _, e := range tr.Outputs() {
			want, err := tr.CharacteristicTimes(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := et.Times(e)
			if err != nil {
				t.Fatal(err)
			}
			timesClose(t, got, want, 1e-12, "fresh overlay")
		}
	}
}

// TestSetResistanceKnownDelta checks the ΔR bookkeeping on a hand-computable
// chain: in -R1- a(C=2) -R2- b(C=3).
func TestSetResistanceKnownDelta(t *testing.T) {
	b := rctree.NewBuilder("in")
	a := b.Resistor(rctree.Root, "a", 1)
	b.Capacitor(a, 2)
	bb := b.Resistor(a, "b", 2)
	b.Capacitor(bb, 3)
	b.Output(bb)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	et := New(tr)
	if err := et.SetResistance(a, 5); err != nil { // R1: 1 -> 5
		t.Fatal(err)
	}
	tm, err := et.Times(bb)
	if err != nil {
		t.Fatal(err)
	}
	// TP = 5*2 + 7*3 = 31; TD at b = 5*2 + 7*3 = 31; TR = (25*2+49*3)/7.
	if !relClose(tm.TP, 31, 1e-12) || !relClose(tm.TD, 31, 1e-12) {
		t.Fatalf("TP/TD = %g/%g, want 31/31", tm.TP, tm.TD)
	}
	if want := (25.0*2 + 49*3) / 7; !relClose(tm.TR, want, 1e-12) {
		t.Fatalf("TR = %g, want %g", tm.TR, want)
	}
	if tm.Ree != 7 {
		t.Fatalf("Ree = %g, want 7", tm.Ree)
	}
}

// TestSetCapacitanceKnownDelta: ΔC at an off-path node moves TD by the
// common resistance times ΔC.
func TestSetCapacitanceKnownDelta(t *testing.T) {
	b := rctree.NewBuilder("in")
	stem := b.Resistor(rctree.Root, "stem", 10)
	left := b.Resistor(stem, "left", 5)
	b.Capacitor(left, 1)
	right := b.Resistor(stem, "right", 7)
	b.Capacitor(right, 2)
	b.Output(right)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	et := New(tr)
	before, err := et.Times(right)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.SetCapacitance(left, 4); err != nil { // ΔC = +3 at off-path node
		t.Fatal(err)
	}
	after, err := et.Times(right)
	if err != nil {
		t.Fatal(err)
	}
	// common(left, right) = stem, R = 10: TD += 10*3, TP += 15*3, TR numerator += 100*3.
	if want := before.TD + 30; !relClose(after.TD, want, 1e-12) {
		t.Fatalf("TD = %g, want %g", after.TD, want)
	}
	if want := before.TP + 45; !relClose(after.TP, want, 1e-12) {
		t.Fatalf("TP = %g, want %g", after.TP, want)
	}
	if want := (before.TR*before.Ree + 300) / before.Ree; !relClose(after.TR, want, 1e-12) {
		t.Fatalf("TR = %g, want %g", after.TR, want)
	}
}

// TestScaleDriverMatchesSetResistance: on a single-driver-edge tree the two
// edit paths must agree exactly.
func TestScaleDriverMatchesSetResistance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := randnet.Tree(rng, randnet.Config{Nodes: 40, LineProb: 0.4, CapProb: 0.8, Chain: 1, RMax: 50, CMax: 5})
	out := tr.Outputs()[0]
	driver := tr.Children(rctree.Root)[0]
	_, r0, _ := tr.Edge(driver)

	a, b := New(tr), New(tr)
	if err := a.ScaleDriver(2.5); err != nil {
		t.Fatal(err)
	}
	if err := b.SetResistance(driver, r0*2.5); err != nil {
		t.Fatal(err)
	}
	ta, err := a.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	timesClose(t, ta, tb, 1e-12, "scale vs set")
}

// TestGrowPrune: growing a tap and pruning it restores the original times.
func TestGrowPrune(t *testing.T) {
	tr := ladder(t, 12)
	out := tr.Outputs()[0]
	et := New(tr)
	orig, err := et.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := et.Lookup("n6")
	tap, err := et.Grow(mid, "tap", rctree.EdgeLine, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.SetCapacitance(tap, 3); err != nil {
		t.Fatal(err)
	}
	grown, err := et.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	timesClose(t, grown, fullTimes(t, et, out), 1e-12, "after grow")
	if grown.TD <= orig.TD {
		t.Fatalf("extra load must slow the output: %g <= %g", grown.TD, orig.TD)
	}
	if err := et.Prune(tap); err != nil {
		t.Fatal(err)
	}
	back, err := et.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	timesClose(t, back, orig, 1e-9, "after prune")
	if _, ok := et.Lookup("tap"); ok {
		t.Fatal("pruned name still resolves")
	}
	if _, err := et.Times(tap); err == nil {
		t.Fatal("Times on a pruned node must fail")
	}
	// The freed name is reusable.
	if _, err := et.Grow(mid, "tap", rctree.EdgeResistor, 2, 0); err != nil {
		t.Fatalf("regrow with freed name: %v", err)
	}
}

// TestGraft attaches a random subtree and cross-checks against the full
// analysis of the materialized result.
func TestGraft(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	host := randnet.Tree(rng, randnet.DefaultConfig(25))
	sub := randnet.Tree(rng, randnet.DefaultConfig(10))
	et := New(host)
	attach := host.Outputs()[0]
	// Names may collide between two independently generated trees (both use
	// n1, n2, ...); a collision must be rejected atomically.
	genBefore := et.Gen()
	if _, err := et.Graft(attach, "", rctree.EdgeResistor, 3, 0, sub); err == nil {
		t.Fatal("colliding graft must fail")
	} else if et.Gen() != genBefore {
		t.Fatal("failed graft mutated the overlay")
	}
	// Rename the subtree via a netlist-free rebuild: prefix its node names.
	b := rctree.NewBuilder("g_in")
	ids := map[rctree.NodeID]rctree.NodeID{rctree.Root: rctree.Root}
	sub.Walk(func(id rctree.NodeID) {
		if id == rctree.Root {
			if c := sub.NodeCap(id); c > 0 {
				b.Capacitor(rctree.Root, c)
			}
			return
		}
		kind, r, c := sub.Edge(id)
		var nid rctree.NodeID
		if kind == rctree.EdgeLine {
			nid = b.Line(ids[sub.Parent(id)], "g_"+sub.Name(id), r, c)
		} else {
			nid = b.Resistor(ids[sub.Parent(id)], "g_"+sub.Name(id), r)
		}
		ids[id] = nid
		if c := sub.NodeCap(id); c > 0 {
			b.Capacitor(nid, c)
		}
	})
	renamed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	graftIDs, err := et.Graft(attach, "", rctree.EdgeLine, 2, 1, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.AddOutput(graftIDs[len(graftIDs)-1]); err != nil {
		t.Fatal(err)
	}
	for _, e := range et.Outputs() {
		got, err := et.Times(e)
		if err != nil {
			t.Fatal(err)
		}
		timesClose(t, got, fullTimes(t, et, e), 1e-12, "grafted "+et.Name(e))
	}
}

// TestEditSequenceMatchesFullRecompute is the subsystem's acceptance
// property: after arbitrary random edit sequences, incrementally maintained
// times agree with a from-scratch analysis to 1e-9 relative error.
func TestEditSequenceMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 30; trial++ {
		tr := randnet.Tree(rng, randnet.Config{
			Nodes:    5 + rng.Intn(80),
			LineProb: 0.4, CapProb: 0.7,
			Chain: rng.Float64(),
			RMax:  100, CMax: 10,
		})
		et := New(tr)
		// Pin a capacitor at the input so pruning can never drain the tree
		// of all capacitance (the input cap contributes zero to every time).
		if err := et.SetCapacitance(Root, 1); err != nil {
			t.Fatal(err)
		}
		slots := tr.NumNodes()
		alive := func() []NodeID {
			var ids []NodeID
			for i := 0; i < slots; i++ {
				if et.Name(NodeID(i)) != "" {
					ids = append(ids, NodeID(i))
				}
			}
			return ids
		}
		steps := 40 + rng.Intn(120)
		for step := 0; step < steps; step++ {
			ids := alive()
			j := ids[rng.Intn(len(ids))]
			var err error
			switch op := rng.Intn(8); {
			case op == 0: // lumped capacitance
				err = et.SetCapacitance(j, rng.Float64()*10)
			case op == 1 && j != Root: // resistance
				err = et.SetResistance(j, rng.Float64()*100+1e-3)
			case op == 2 && j != Root: // full line probe
				err = et.SetLine(j, rng.Float64()*100+1e-3, rng.Float64()*10)
			case op == 3:
				err = et.ScaleDriver(0.5 + rng.Float64()*1.5)
			case op == 4: // grow a tap
				kind, c := rctree.EdgeResistor, 0.0
				if rng.Intn(2) == 0 {
					kind, c = rctree.EdgeLine, rng.Float64()*10+1e-6
				}
				_, err = et.Grow(j, "", kind, rng.Float64()*100+1e-3, c)
				slots++
			case op == 5 && j != Root && et.NumNodes() > 3: // prune
				err = et.Prune(j)
			case op == 6: // graft a small renamed chain
				b := rctree.NewBuilder(randName(rng, "gin", step, trial))
				prev := rctree.Root
				for k := 0; k < 1+rng.Intn(4); k++ {
					prev = b.Resistor(prev, randName(rng, "g", step*10+k, trial), rng.Float64()*50+1e-3)
					b.Capacitor(prev, rng.Float64()*5)
				}
				b.Capacitor(prev, 1e-6)
				b.Output(prev)
				var sub *rctree.Tree
				sub, err = b.Build()
				if err != nil {
					t.Fatal(err)
				}
				_, err = et.Graft(j, "", rctree.EdgeResistor, rng.Float64()*20+1e-3, 0, sub)
				slots += sub.NumNodes()
			default:
				continue
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		// Compare every live node (not just designated outputs) against the
		// full recompute of the materialized state.
		mt, mapping, err := et.Materialize()
		if err != nil {
			t.Fatalf("trial %d: materialize: %v", trial, err)
		}
		for _, id := range alive() {
			got, err := et.Times(id)
			if err != nil {
				t.Fatalf("trial %d node %q: %v", trial, et.Name(id), err)
			}
			want, err := mt.CharacteristicTimes(mapping[id])
			if err != nil {
				t.Fatalf("trial %d node %q: full: %v", trial, et.Name(id), err)
			}
			timesClose(t, got, want, 1e-9, "trial end "+et.Name(id))
		}
		// Recompute must not change the answers (only squash drift).
		probe := alive()[rng.Intn(len(alive()))]
		before, _ := et.Times(probe)
		et.Recompute()
		after, err := et.Times(probe)
		if err != nil {
			t.Fatalf("trial %d: after Recompute: %v", trial, err)
		}
		timesClose(t, after, before, 1e-9, "recompute consistency")
	}
}

func randName(rng *rand.Rand, prefix string, a, b int) string {
	return prefix + "_" + string(rune('a'+rng.Intn(26))) + "_" +
		string(rune('a'+rng.Intn(26))) + "_" + itoa(a) + "_" + itoa(b)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestMaterializeRoundTrip: materializing and re-wrapping yields identical
// answers, and the mapping resolves names.
func TestMaterializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := randnet.Tree(rng, randnet.DefaultConfig(30))
	et := New(tr)
	out := tr.Outputs()[len(tr.Outputs())-1]
	if err := et.SetCapacitance(out, 42); err != nil {
		t.Fatal(err)
	}
	mt, mapping, err := et.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.NumNodes(); i++ {
		if mapping[i] < 0 {
			t.Fatalf("live node %d unmapped", i)
		}
		if mt.Name(mapping[i]) != et.Name(NodeID(i)) {
			t.Fatalf("mapping broke name %q", et.Name(NodeID(i)))
		}
	}
	et2 := New(mt)
	a, err := et.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := et2.Times(mapping[out])
	if err != nil {
		t.Fatal(err)
	}
	timesClose(t, a, b, 1e-12, "round trip")
}

// TestEditErrors covers the rejection paths.
func TestEditErrors(t *testing.T) {
	tr := ladder(t, 4)
	et := New(tr)
	n2, _ := et.Lookup("n2")
	cases := []struct {
		name string
		err  error
	}{
		{"set R on root", et.SetResistance(Root, 1)},
		{"set line on root", et.SetLine(Root, 1, 1)},
		{"negative C", et.SetCapacitance(n2, -1)},
		{"NaN C", et.SetCapacitance(n2, math.NaN())},
		{"zero R", et.SetResistance(n2, 0)},
		{"infinite R", et.SetResistance(n2, math.Inf(1))},
		{"prune root", et.Prune(Root)},
		{"scale by zero", et.ScaleDriver(0)},
		{"out of range", et.SetCapacitance(NodeID(99), 1)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := et.Grow(n2, "n3", rctree.EdgeResistor, 1, 0); err == nil {
		t.Error("duplicate grow name: expected error")
	}
	if _, err := et.Grow(n2, "x", rctree.EdgeResistor, 1, 2); err == nil {
		t.Error("resistor with C: expected error")
	}
	if gen := et.Gen(); gen != 0 {
		t.Errorf("failed edits must not bump the generation, got %d", gen)
	}
	// Output bookkeeping.
	if err := et.AddOutput(n2); err != nil {
		t.Fatal(err)
	}
	if err := et.AddOutput(n2); err == nil {
		t.Error("double AddOutput: expected error")
	}
	if !et.RemoveOutput(n2) || et.RemoveOutput(n2) {
		t.Error("RemoveOutput bookkeeping broken")
	}
}

// TestOutputEditsBumpGen: designating or undesignating an output changes
// what Materialize emits, so each success bumps the generation exactly once;
// a rejected AddOutput or a RemoveOutput of a non-output leaves it alone.
func TestOutputEditsBumpGen(t *testing.T) {
	et := New(ladder(t, 4))
	n2, _ := et.Lookup("n2")
	step := func(what string, want uint64) {
		t.Helper()
		if got := et.Gen(); got != want {
			t.Fatalf("%s: gen %d, want %d", what, got, want)
		}
	}
	step("fresh", 0)
	if err := et.AddOutput(n2); err != nil {
		t.Fatal(err)
	}
	step("AddOutput", 1)
	if err := et.AddOutput(n2); err == nil {
		t.Fatal("double AddOutput: expected error")
	}
	step("rejected AddOutput", 1)
	if err := et.AddOutput(NodeID(99)); err == nil {
		t.Fatal("AddOutput out of range: expected error")
	}
	step("out-of-range AddOutput", 1)
	if !et.RemoveOutput(n2) {
		t.Fatal("RemoveOutput of an output reported false")
	}
	step("RemoveOutput", 2)
	if et.RemoveOutput(n2) {
		t.Fatal("RemoveOutput of a non-output reported true")
	}
	step("RemoveOutput of a non-output", 2)
}

// TestTransientSpikeCancellation: a huge edit that is immediately reverted
// must not leave catastrophic-cancellation residue in the aggregates — the
// magnitude trigger forces a full recompute, keeping queries within 1e-9.
func TestTransientSpikeCancellation(t *testing.T) {
	tr := ladder(t, 50)
	out := tr.Outputs()[0]
	et := New(tr)
	want, err := et.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := et.Lookup("n25")
	for _, spike := range []float64{1e12, 1e15, 1e18} {
		if err := et.SetCapacitance(mid, spike); err != nil {
			t.Fatal(err)
		}
		if err := et.SetCapacitance(mid, 0.5); err != nil { // nominal ladder cap
			t.Fatal(err)
		}
		got, err := et.Times(out)
		if err != nil {
			t.Fatalf("after %g spike: %v", spike, err)
		}
		timesClose(t, got, want, 1e-9, fmt.Sprintf("after %g spike+revert", spike))
	}
	// Same story for a resistance spike.
	if err := et.SetResistance(mid, 1e15); err != nil {
		t.Fatal(err)
	}
	if err := et.SetResistance(mid, 1); err != nil {
		t.Fatal(err)
	}
	got, err := et.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	timesClose(t, got, want, 1e-9, "after R spike+revert")
}

// TestRebuildFallback drives enough edits to cross the density threshold
// several times and checks the fallback leaves answers intact.
func TestRebuildFallback(t *testing.T) {
	tr := ladder(t, 8)
	out := tr.Outputs()[0]
	et := New(tr)
	n4, _ := et.Lookup("n4")
	want, err := et.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*et.NumNodes(); i++ {
		// A no-net-change pair of edits per step.
		if err := et.SetCapacitance(n4, 7); err != nil {
			t.Fatal(err)
		}
		if err := et.SetCapacitance(n4, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	got, err := et.Times(out)
	if err != nil {
		t.Fatal(err)
	}
	timesClose(t, got, want, 1e-9, "after threshold rebuilds")
}

// TestCloneIndependence: a clone answers exactly what its source answers at
// the moment of cloning, and edits to either side never show through to the
// other — both compared against full recomputes of their own materialized
// states.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		tr := randnet.Tree(rng, randnet.DefaultConfig(5+rng.Intn(40)))
		et := New(tr)
		// Warm the source with a few edits so the clone copies a non-trivial
		// aggregate state, not just the New() baseline.
		for k := 0; k < 3; k++ {
			id := NodeID(1 + rng.Intn(tr.NumNodes()-1))
			if err := et.SetResistance(id, 1+rng.Float64()*50); err != nil {
				t.Fatal(err)
			}
		}
		cl := et.Clone()
		if cl.Gen() != et.Gen() || cl.NumNodes() != et.NumNodes() || cl.Slots() != et.Slots() {
			t.Fatalf("clone metadata diverges: gen %d/%d nodes %d/%d slots %d/%d",
				cl.Gen(), et.Gen(), cl.NumNodes(), et.NumNodes(), cl.Slots(), et.Slots())
		}
		for _, e := range et.Outputs() {
			a, err := et.Times(e)
			if err != nil {
				t.Fatal(err)
			}
			b, err := cl.Times(e)
			if err != nil {
				t.Fatal(err)
			}
			timesClose(t, b, a, 0, "clone at snapshot")
		}
		// Diverge both sides with different edits; each must keep matching a
		// full recompute of its own state.
		id := NodeID(1 + rng.Intn(tr.NumNodes()-1))
		if err := et.SetCapacitance(id, 30); err != nil {
			t.Fatal(err)
		}
		if err := cl.SetResistance(id, 123); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Grow(Root, fmt.Sprintf("cl%d", trial), rctree.EdgeLine, 7, 3); err != nil {
			t.Fatal(err)
		}
		for _, e := range et.Outputs() {
			got, err := et.Times(e)
			if err != nil {
				t.Fatal(err)
			}
			timesClose(t, got, fullTimes(t, et, e), 1e-9, "source after divergence")
		}
		for _, e := range cl.Outputs() {
			got, err := cl.Times(e)
			if err != nil {
				t.Fatal(err)
			}
			timesClose(t, got, fullTimes(t, cl, e), 1e-9, "clone after divergence")
		}
	}
}

// TestNamesStayPrivate: an overlay resolves names through its source
// tree's immutable index until its first Grow, Graft or Prune, which gives
// it a private map. A name grown, grafted or pruned on one overlay must never
// show in the tree it was built from, in the overlay it was cloned from or
// in a clone taken before the edit.
func TestNamesStayPrivate(t *testing.T) {
	tr := randnet.TreeSeed(5, randnet.DefaultConfig(12))
	et := New(tr)
	for id := NodeID(0); int(id) < tr.NumNodes(); id++ {
		if got, ok := et.Clone().Lookup(tr.Name(id)); !ok || got != id {
			t.Fatalf("clone resolves %q to %d, %v; want %d", tr.Name(id), got, ok, id)
		}
	}
	sb := rctree.NewBuilder("gin")
	g1 := sb.Resistor(rctree.Root, "g1", 2)
	sb.Capacitor(g1, 1)
	sub, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tr.Name(tr.Outputs()[0])
	leafID, _ := et.Lookup(leaf)

	a := et.Clone()
	if _, err := a.Grow(Root, "grown", rctree.EdgeResistor, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Graft(Root, "", rctree.EdgeResistor, 4, 0, sub); err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	if err := b.Prune(leafID); err != nil {
		t.Fatal(err)
	}
	c := et.Clone()
	if err := c.Prune(leafID); err != nil {
		t.Fatal(err)
	}
	if _, err := et.Grow(Root, "late", rctree.EdgeResistor, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Grow(Root, "after", rctree.EdgeResistor, 3, 0); err != nil {
		t.Fatal(err)
	}
	lookups := map[string]func(string) (NodeID, bool){
		"tree": tr.Lookup, "source": et.Lookup, "a": a.Lookup, "b": b.Lookup, "c": c.Lookup,
	}
	for _, tc := range []struct {
		name  string
		knows []string // the overlays that must resolve name; no other may
	}{
		{"grown", []string{"a", "b"}},
		{"gin", []string{"a", "b"}},
		{"g1", []string{"a", "b"}},
		{"after", []string{"a"}},
		{"late", []string{"source"}},
		{leaf, []string{"tree", "source", "a"}},
	} {
		for who, lookup := range lookups {
			_, got := lookup(tc.name)
			if want := slices.Contains(tc.knows, who); got != want {
				t.Errorf("%s resolves %q: %v, want %v", who, tc.name, got, want)
			}
		}
	}
}

// TestSlotsChildren: the topology read surface used by tree scans — Slots
// bounds ID scans even across prunes, and Children mirrors Parent.
func TestSlotsChildren(t *testing.T) {
	b := rctree.NewBuilder("in")
	n1 := b.Resistor(rctree.Root, "n1", 10)
	n2 := b.Resistor(n1, "n2", 20)
	b.Capacitor(n2, 5)
	n3 := b.Resistor(n1, "n3", 30)
	b.Capacitor(n3, 2)
	b.Output(n2)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	et := New(tr)
	if et.Slots() != 4 {
		t.Fatalf("Slots = %d, want 4", et.Slots())
	}
	kids := et.Children(n1)
	if len(kids) != 2 || kids[0] != n2 || kids[1] != n3 {
		t.Fatalf("Children(n1) = %v, want [%d %d]", kids, n2, n3)
	}
	for _, k := range kids {
		if et.Parent(k) != n1 {
			t.Fatalf("Parent(%d) = %d, want %d", k, et.Parent(k), n1)
		}
	}
	if err := et.Prune(n3); err != nil {
		t.Fatal(err)
	}
	if et.Slots() != 4 {
		t.Fatalf("Slots after prune = %d, want 4 (slots persist)", et.Slots())
	}
	if kids := et.Children(n1); len(kids) != 1 || kids[0] != n2 {
		t.Fatalf("Children(n1) after prune = %v, want [%d]", kids, n2)
	}
	if et.Children(n3) != nil {
		t.Fatalf("Children of a pruned node = %v, want nil", et.Children(n3))
	}
	if et.Children(NodeID(99)) != nil {
		t.Fatal("Children out of range should be nil")
	}
}

// TestCloneIntoReusedTree: CloneInto over a tree that served other edits —
// another net's overlay, or an overlay of the same net edited to the same
// generation with other values, grown and queried — answers exactly what
// Clone of the same source answers, keeps none of the old tree's names,
// children or memo, and stays independent of its source both ways.
func TestCloneIntoReusedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		tree := randnet.Tree(rng, randnet.DefaultConfig(5+rng.Intn(40)))
		src := New(tree)
		old := New(randnet.Tree(rng, randnet.DefaultConfig(5+rng.Intn(40))))
		if trial%2 == 1 {
			old = New(tree) // the same net: its memo stamps collide with src's
		}
		for k := 0; k < 3; k++ {
			for _, et := range []*EditTree{src, old} {
				if err := et.SetResistance(NodeID(1+rng.Intn(et.Slots()-1)), 1+rng.Float64()*50); err != nil {
					t.Fatal(err)
				}
			}
		}
		if trial%3 == 0 { // a source with a private name map
			if _, err := src.Grow(Root, fmt.Sprintf("src%d", trial), rctree.EdgeLine, 4, 2); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := old.AllTimes(); err != nil {
			t.Fatal(err)
		}
		if _, err := old.Grow(Root, "stale", rctree.EdgeResistor, 3, 0); err != nil {
			t.Fatal(err)
		}
		want := src.Clone()
		got := src.CloneInto(old)
		if got != old {
			t.Fatal("CloneInto did not reuse its destination")
		}
		if _, ok := got.Lookup("stale"); ok {
			t.Fatalf("trial %d: the reused tree still resolves a name of its old state", trial)
		}
		if got.Gen() != want.Gen() || got.NumNodes() != want.NumNodes() || got.Slots() != want.Slots() ||
			!slices.Equal(got.Outputs(), want.Outputs()) {
			t.Fatalf("trial %d: CloneInto metadata differs from Clone's", trial)
		}
		for id := NodeID(0); int(id) < want.Slots(); id++ {
			if got.Name(id) != want.Name(id) || !slices.Equal(got.Children(id), want.Children(id)) {
				t.Fatalf("trial %d: node %d differs from Clone's", trial, id)
			}
			if id, ok := got.Lookup(want.Name(id)); ok != (want.Name(id) != "") || (ok && got.Name(id) != want.Name(id)) {
				t.Fatalf("trial %d: Lookup(%q) differs from Clone's", trial, want.Name(id))
			}
		}
		for _, e := range want.Outputs() {
			a, err := want.Times(e)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.Times(e)
			if err != nil {
				t.Fatal(err)
			}
			timesClose(t, b, a, 0, "CloneInto against Clone")
		}
		// Diverge both sides; each must keep matching its own full recompute.
		id := NodeID(1 + rng.Intn(want.Slots()-1))
		if err := src.SetCapacitance(id, 30); err != nil {
			t.Fatal(err)
		}
		if err := got.SetResistance(id, 123); err != nil {
			t.Fatal(err)
		}
		if _, err := got.Grow(id, fmt.Sprintf("g%d", trial), rctree.EdgeResistor, 2, 0); err != nil {
			t.Fatal(err)
		}
		for _, et := range []*EditTree{src, got} {
			for _, e := range et.Outputs() {
				tm, err := et.Times(e)
				if err != nil {
					t.Fatal(err)
				}
				timesClose(t, tm, fullTimes(t, et, e), 1e-9, "after divergence")
			}
		}
	}
}
