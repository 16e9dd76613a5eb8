package incr

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/randnet"
	"repro/internal/rctree"
)

// TestSlabChildrenKeepSiblings: New and Clone hand every node a
// capacity-limited window of one children slab. Appending to a window, or
// growing, grafting and pruning through the API, must never change another
// node's children, on the overlay or on its clone.
func TestSlabChildrenKeepSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		tree := randnet.Tree(rng, randnet.DefaultConfig(1+rng.Intn(40)))
		et := New(tree)
		if trial%2 == 1 {
			et = et.Clone()
		}
		want := make([][]NodeID, tree.NumNodes())
		for i := range want {
			want[i] = slices.Clone(tree.Children(NodeID(i)))
		}
		check := func(op string) {
			t.Helper()
			for i := range want {
				if got := et.Children(NodeID(i)); !slices.Equal(got, want[i]) {
					t.Fatalf("trial %d after %s: node %d children %v, want %v", trial, op, i, got, want[i])
				}
			}
		}
		for i := range et.nodes {
			_ = append(et.nodes[i].children, -1)
		}
		check("appends to every window")
		var grown []NodeID
		for range 3 * len(want) {
			if len(grown) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(grown))
				q := grown[k]
				grown = slices.Delete(grown, k, k+1)
				p := et.Parent(q)
				if err := et.Prune(q); err != nil {
					t.Fatal(err)
				}
				if int(p) < len(want) {
					want[p] = slices.DeleteFunc(want[p], func(v NodeID) bool { return v == q })
				}
				check("prune")
				continue
			}
			p := NodeID(rng.Intn(len(want)))
			id, err := et.Grow(p, "", rctree.EdgeResistor, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = append(want[p], id)
			grown = append(grown, id)
			check("grow")
		}
	}
}

// trees240 is one randnet tree per net of a 240-net design, each with
// nodes non-input nodes.
func trees240(nodes int) []*rctree.Tree {
	ts := make([]*rctree.Tree, 240)
	for i := range ts {
		ts[i] = randnet.TreeSeed(int64(i+1), randnet.DefaultConfig(nodes))
	}
	return ts
}

// checkAllocsScaleWithNets fails t unless op's allocs/op over 240 trees
// move by less than 5% when every tree doubles from 30 to 60 nodes.
func checkAllocsScaleWithNets(t *testing.T, name string, op func([]*rctree.Tree) func()) {
	t.Helper()
	a30 := testing.AllocsPerRun(5, op(trees240(30)))
	a60 := testing.AllocsPerRun(5, op(trees240(60)))
	t.Logf("%s allocs/op over 240 trees: %v at 30 nodes, %v at 60", name, a30, a60)
	if a60 > 1.05*a30 || a60 < 0.95*a30 {
		t.Fatalf("%s allocs/op over 240 trees: %v at 30 nodes, %v at 60; want within 5%%", name, a30, a60)
	}
}

// TestNewAllocsScaleWithNets: New copies a tree's children into one slab,
// so mounting allocates per tree, not per node.
func TestNewAllocsScaleWithNets(t *testing.T) {
	checkAllocsScaleWithNets(t, "New", func(ts []*rctree.Tree) func() {
		return func() {
			for _, tr := range ts {
				New(tr)
			}
		}
	})
}

// TestCloneAllocsScaleWithNets: Clone copies the children into one slab,
// so a clone allocates per tree, not per node.
func TestCloneAllocsScaleWithNets(t *testing.T) {
	checkAllocsScaleWithNets(t, "Clone", func(ts []*rctree.Tree) func() {
		ets := make([]*EditTree, len(ts))
		for i, tr := range ts {
			ets[i] = New(tr)
		}
		return func() {
			for _, et := range ets {
				et.Clone()
			}
		}
	})
}
