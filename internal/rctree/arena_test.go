package rctree

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomArenaTree builds a random valid tree: random topology with a bias
// toward chains (deep) or stars (wide), mixed resistor/line edges, scattered
// lumped caps and outputs.
func randomArenaTree(t *testing.T, rng *rand.Rand, nodes int) *Tree {
	t.Helper()
	b := NewBuilder("in")
	ids := []NodeID{Root}
	shape := rng.Intn(3) // 0: random, 1: chain-biased, 2: star-biased
	for len(ids) < nodes {
		var parent NodeID
		switch shape {
		case 1:
			parent = ids[len(ids)-1]
		case 2:
			parent = Root
		default:
			parent = ids[rng.Intn(len(ids))]
		}
		var id NodeID
		if rng.Intn(3) == 0 {
			id = b.Line(parent, "", 0.5+rng.Float64()*10, 0.1+rng.Float64()*5)
		} else {
			id = b.Resistor(parent, "", 0.5+rng.Float64()*10)
		}
		if rng.Intn(2) == 0 {
			b.Capacitor(id, rng.Float64()*3)
		}
		ids = append(ids, id)
	}
	b.Capacitor(Root, 0.1) // guarantee some capacitance
	for _, id := range ids[1:] {
		if rng.Intn(4) == 0 {
			b.Output(id)
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("random tree invalid: %v", err)
	}
	return tree
}

// TestArenaTimesMatchTree pins the arena pass to the pointer-tree pass: the
// two implementations walk nodes in the same order, so the sums must agree
// exactly, for every output of many random trees.
func TestArenaTimesMatchTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		tree := randomArenaTree(t, rng, 2+rng.Intn(40))
		a := NewArena(tree)
		if a.Len() != tree.NumNodes() {
			t.Fatalf("arena len %d != tree %d", a.Len(), tree.NumNodes())
		}
		for _, e := range tree.Outputs() {
			want, err := tree.CharacteristicTimes(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.TimesInto(int32(e), &s)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d output %d: arena %+v != tree %+v", trial, e, got, want)
			}
		}
	}
}

// TestArenaRoundTrip checks build → materialize → rebuild is idempotent and
// lossless: the materialized tree reproduces names, structure, outputs and
// characteristic times, and its arena deep-equals the original.
func TestArenaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		tree := randomArenaTree(t, rng, 2+rng.Intn(30))
		a := NewArena(tree)
		back, err := a.Materialize()
		if err != nil {
			t.Fatalf("trial %d: materialize: %v", trial, err)
		}
		if back.String() != tree.String() {
			t.Fatalf("trial %d: materialized tree differs:\n%s\nvs\n%s", trial, back.String(), tree.String())
		}
		if !reflect.DeepEqual(back.Outputs(), tree.Outputs()) {
			t.Fatalf("trial %d: outputs %v -> %v", trial, tree.Outputs(), back.Outputs())
		}
		a2 := NewArena(back)
		if !reflect.DeepEqual(a, a2) {
			t.Fatalf("trial %d: arena round trip not idempotent", trial)
		}
	}
}

func TestArenaLookup(t *testing.T) {
	b := NewBuilder("in")
	n1 := b.Resistor(Root, "mid", 2)
	b.Line(n1, "far", 3, 1)
	b.Capacitor(n1, 1)
	b.Output(n1)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(tree)
	id, ok := a.Lookup("far")
	if !ok || a.Names[id] != "far" {
		t.Fatalf("Lookup(far) = %d, %v", id, ok)
	}
	if _, ok := a.Lookup("ghost"); ok {
		t.Error("Lookup(ghost) succeeded")
	}
}

func TestArenaErrors(t *testing.T) {
	if _, err := (&Arena{}).Materialize(); err == nil {
		t.Error("empty arena materialized")
	}
	b := NewBuilder("in")
	b.Capacitor(b.Resistor(Root, "o", 1), 1)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(tree)
	var s Scratch
	if _, err := a.TimesInto(-1, &s); err == nil {
		t.Error("negative output accepted")
	}
	if _, err := a.TimesInto(int32(a.Len()), &s); err == nil {
		t.Error("out-of-range output accepted")
	}
	dup := NewArena(tree)
	dup.Names[1] = dup.Names[0]
	if _, err := dup.Materialize(); err == nil {
		t.Error("duplicate names materialized")
	}
}

// TestTimesFlatZeroAlloc asserts the flat pass allocates nothing once the
// scratch has grown — the property the design-level hot path depends on —
// both for one output and for the all-outputs sweep over every node (more
// than 64 outputs, so several sweeps), with its results in the scratch's own
// buffer.
func TestTimesFlatZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	tree := randomArenaTree(t, rand.New(rand.NewSource(3)), 100)
	a := NewArena(tree)
	var s Scratch
	e := a.Outputs[0]
	all := make([]int32, a.Len())
	for i := range all {
		all[i] = int32(i)
	}
	run := func() {
		if _, err := a.TimesInto(e, &s); err != nil {
			t.Fatal(err)
		}
		if _, err := TimesFlatAll(a.Parent, a.Kind, a.EdgeR, a.EdgeC, a.NodeC, all, s.Times(len(all)), &s); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("TimesInto + TimesFlatAll allocate %v times per run on the steady state", allocs)
	}
}
