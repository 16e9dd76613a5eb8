package rctree

import (
	"math/rand"
	"reflect"
	"strings"
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

// copyColumns deep-copies c, so a tree built from the copy derives
// everything it holds itself.
func copyColumns(c Columns) Columns {
	return Columns{
		Parent:  append([]int32(nil), c.Parent...),
		Kind:    append([]uint8(nil), c.Kind...),
		EdgeR:   append([]float64(nil), c.EdgeR...),
		EdgeC:   append([]float64(nil), c.EdgeC...),
		NodeC:   append([]float64(nil), c.NodeC...),
		Names:   append([]string(nil), c.Names...),
		Outputs: append([]NodeID(nil), c.Outputs...),
	}
}

// TestArenaTimesMatchTree pins the tree's characteristic times, TimesFlat
// over the tree's own columns, to the fused all-outputs sweep over the same
// columns: the sums must agree exactly, for every output of many random
// trees, and stay within rounding of the O(n·depth) reference.
func TestArenaTimesMatchTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		tree := randomArenaTree(t, rng, 2+rng.Intn(40))
		c := tree.Columns()
		if len(c.Parent) != tree.NumNodes() {
			t.Fatalf("columns hold %d nodes, tree %d", len(c.Parent), tree.NumNodes())
		}
		outs := make([]int32, len(c.Outputs))
		for j, e := range c.Outputs {
			outs[j] = int32(e)
		}
		fused := make([]Times, len(outs))
		if _, err := TimesFlatAll(c.Parent, c.Kind, c.EdgeR, c.EdgeC, c.NodeC, outs, fused, &s); err != nil {
			t.Fatal(err)
		}
		for j, e := range tree.Outputs() {
			got, err := tree.CharacteristicTimes(e)
			if err != nil {
				t.Fatal(err)
			}
			if got != fused[j] {
				t.Fatalf("trial %d output %d: tree %+v != fused %+v", trial, e, got, fused[j])
			}
			ref, err := tree.CharacteristicTimesRef(e)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEq(got.TP, ref.TP, 1e-12) || !almostEq(got.TD, ref.TD, 1e-12) || !almostEq(got.TR, ref.TR, 1e-12) {
				t.Fatalf("trial %d output %d: tree %+v vs reference %+v", trial, e, got, ref)
			}
		}
	}
}

// TestArenaRoundTrip checks tree → columns → tree is lossless: FromColumns
// on a deep copy of a tree's columns reproduces names, structure, CSR
// children, outputs and rendering, and its columns deep-equal the original.
func TestArenaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		tree := randomArenaTree(t, rng, 2+rng.Intn(30))
		back, err := FromColumns(copyColumns(tree.Columns()))
		if err != nil {
			t.Fatalf("trial %d: from columns: %v", trial, err)
		}
		if !reflect.DeepEqual(back.Columns(), tree.Columns()) {
			t.Fatalf("trial %d: columns round trip not lossless", trial)
		}
		if back.String() != tree.String() {
			t.Fatalf("trial %d: rebuilt tree differs:\n%s\nvs\n%s", trial, back.String(), tree.String())
		}
		for i := range tree.NumNodes() {
			id := NodeID(i)
			if !reflect.DeepEqual(back.Children(id), tree.Children(id)) {
				t.Fatalf("trial %d node %d: children %v -> %v", trial, i, tree.Children(id), back.Children(id))
			}
			if got, ok := back.Lookup(tree.Name(id)); !ok || got != id {
				t.Fatalf("trial %d: Lookup(%q) = %d, %v", trial, tree.Name(id), got, ok)
			}
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
	back, err := FromColumns(copyColumns(tree.Columns()))
	if err != nil {
		t.Fatal(err)
	}
	id, ok := back.Lookup("far")
	if !ok || back.Columns().Names[id] != "far" {
		t.Fatalf("Lookup(far) = %d, %v", id, ok)
	}
	if _, ok := back.Lookup("ghost"); ok {
		t.Error("Lookup(ghost) succeeded")
	}
	if id, ok := back.LookupOutput("mid"); !ok || id != n1 {
		t.Errorf("LookupOutput(mid) = %d, %v; want %d, true", id, ok, n1)
	}
	for _, name := range []string{"far", "in", "ghost"} {
		if _, ok := back.LookupOutput(name); ok {
			t.Errorf("LookupOutput(%q) found a node that is not a designated output", name)
		}
	}
}

// TestArenaErrors pins what FromColumns refuses and the kernel's range
// checks.
func TestArenaErrors(t *testing.T) {
	b := NewBuilder("in")
	b.Capacitor(b.Resistor(Root, "o", 1), 1)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := tree.Columns()
	var s Scratch
	if _, err := TimesFlat(c.Parent, c.Kind, c.EdgeR, c.EdgeC, c.NodeC, -1, &s); err == nil {
		t.Error("negative output accepted")
	}
	if _, err := TimesFlat(c.Parent, c.Kind, c.EdgeR, c.EdgeC, c.NodeC, len(c.Parent), &s); err == nil {
		t.Error("out-of-range output accepted")
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*Columns)
	}{
		{"empty", "empty tree", func(c *Columns) { *c = Columns{} }},
		{"unequal lengths", "unequal lengths", func(c *Columns) { c.NodeC = c.NodeC[:1] }},
		{"duplicate names", "duplicate node name", func(c *Columns) { c.Names[1] = c.Names[0] }},
		{"forward parent", "invalid parent", func(c *Columns) { c.Parent[1] = 1 }},
		{"rootless", "must be the input", func(c *Columns) { c.Parent[0] = 0 }},
		{"no capacitance", "no capacitance", func(c *Columns) { c.NodeC[1] = 0 }},
		{"output out of range", "out of range", func(c *Columns) { c.Outputs = []NodeID{2} }},
	} {
		bad := copyColumns(c)
		tc.edit(&bad)
		if _, err := FromColumns(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FromColumns error %v, want one containing %q", tc.name, err, tc.want)
		}
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
	c := tree.Columns()
	var s Scratch
	e := c.Outputs[0]
	all := make([]int32, len(c.Parent))
	for i := range all {
		all[i] = int32(i)
	}
	run := func() {
		if _, err := tree.CharacteristicTimesInto(e, &s); err != nil {
			t.Fatal(err)
		}
		if _, err := TimesFlatAll(c.Parent, c.Kind, c.EdgeR, c.EdgeC, c.NodeC, all, s.Times(len(all)), &s); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("CharacteristicTimesInto + TimesFlatAll allocate %v times per run on the steady state", allocs)
	}
}

// TestChildrenAppendKeepsSiblings: Children returns a capacity-limited
// window of the shared children column, so appending to one node's
// children copies and never overwrites the next node's.
func TestChildrenAppendKeepsSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		tree := randomArenaTree(t, rng, 2+rng.Intn(40))
		want := make([][]NodeID, tree.NumNodes())
		for i := range want {
			want[i] = append([]NodeID(nil), tree.Children(NodeID(i))...)
		}
		for i := range want {
			_ = append(tree.Children(NodeID(i)), -7, -8)
		}
		for i := range want {
			if got := tree.Children(NodeID(i)); !reflect.DeepEqual(got, want[i]) && len(got)+len(want[i]) > 0 {
				t.Fatalf("trial %d: node %d children %v, want %v after appends to others", trial, i, got, want[i])
			}
		}
	}
}

// TestBuildChildrenMatchParents: the CSR children Build derives list, for
// every node, exactly the nodes whose parent it is, in ascending id order.
func TestBuildChildrenMatchParents(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		tree := randomArenaTree(t, rng, 1+rng.Intn(60))
		want := make([][]NodeID, tree.NumNodes())
		for i := 1; i < tree.NumNodes(); i++ {
			p := tree.Parent(NodeID(i))
			want[p] = append(want[p], NodeID(i))
		}
		for i := range want {
			if got := tree.Children(NodeID(i)); len(got)+len(want[i]) > 0 && !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("trial %d: node %d children %v, want %v", trial, i, got, want[i])
			}
		}
	}
}
