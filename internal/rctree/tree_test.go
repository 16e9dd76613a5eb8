package rctree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fig3Tree builds the network of Figure 3:
//
//	in -R1- a -R2- b ; b -R3- k -R4- leaf ; b -R5- e
func fig3Tree(t *testing.T) (*Tree, NodeID, NodeID) {
	t.Helper()
	b := NewBuilder("in")
	a := b.Resistor(Root, "a", 1)
	bb := b.Resistor(a, "b", 2)
	k := b.Resistor(bb, "k", 4)
	leaf := b.Resistor(k, "leaf", 8)
	e := b.Resistor(bb, "e", 16)
	b.Capacitor(k, 1)
	b.Capacitor(leaf, 1)
	b.Capacitor(e, 1)
	b.Output(e)
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr, k, e
}

func TestFig3ResistanceTerms(t *testing.T) {
	tr, k, e := fig3Tree(t)
	if got := tr.PathResistance(k); got != 1+2+4 {
		t.Errorf("Rkk = %g, want 7", got)
	}
	if got := tr.PathResistance(e); got != 1+2+16 {
		t.Errorf("Ree = %g, want 19", got)
	}
	if got := tr.commonResistance(k, e); got != 1+2 {
		t.Errorf("Rke = %g, want 3", got)
	}
	// Rke <= Rkk and Rke <= Ree (paper, §III).
	if tr.commonResistance(k, e) > tr.PathResistance(k) {
		t.Error("Rke > Rkk")
	}
	if tr.commonResistance(k, e) > tr.PathResistance(e) {
		t.Error("Rke > Ree")
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("")
	n1 := b.Resistor(Root, "n1", 10)
	b.Capacitor(n1, 2)
	b.Capacitor(n1, 3) // accumulates
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tr.Name(Root) != "in" {
		t.Errorf("default input name = %q, want in", tr.Name(Root))
	}
	if got := tr.NodeCap(n1); got != 5 {
		t.Errorf("NodeCap = %g, want 5", got)
	}
	if got := tr.TotalCap(); got != 5 {
		t.Errorf("TotalCap = %g, want 5", got)
	}
	if got := tr.TotalRes(); got != 10 {
		t.Errorf("TotalRes = %g, want 10", got)
	}
	// No explicit output: the single leaf becomes one.
	if len(tr.Outputs()) != 1 || tr.Outputs()[0] != n1 {
		t.Errorf("Outputs = %v, want [%d]", tr.Outputs(), n1)
	}
}

func TestBuilderDegenerateLines(t *testing.T) {
	b := NewBuilder("in")
	// C=0 line becomes a resistor edge.
	n1 := b.Line(Root, "n1", 10, 0)
	// R=0 line becomes a lumped capacitor at the parent.
	ret := b.Line(n1, "ignored", 0, 4)
	if ret != n1 {
		t.Errorf("zero-R line should return parent %d, got %d", n1, ret)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	kind, r, c := tr.Edge(n1)
	if kind != EdgeResistor || r != 10 || c != 0 {
		t.Errorf("edge = %v R=%g C=%g, want resistor 10 0", kind, r, c)
	}
	if got := tr.NodeCap(n1); got != 4 {
		t.Errorf("NodeCap = %g, want 4", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"negative resistor", func(b *Builder) {
			n := b.Resistor(Root, "x", -1)
			b.Capacitor(n, 1)
		}, "R > 0"},
		{"duplicate name", func(b *Builder) {
			b.Resistor(Root, "x", 1)
			n := b.Resistor(Root, "x", 2)
			b.Capacitor(n, 1)
		}, "duplicate"},
		{"negative capacitor", func(b *Builder) {
			n := b.Resistor(Root, "x", 1)
			b.Capacitor(n, -2)
		}, "C >= 0"},
		{"zero-zero line", func(b *Builder) {
			n := b.Line(Root, "x", 0, 0)
			b.Capacitor(n, 1)
		}, "R=0 and C=0"},
		{"double output", func(b *Builder) {
			n := b.Resistor(Root, "x", 1)
			b.Capacitor(n, 1)
			b.Output(n)
			b.Output(n)
		}, "twice"},
		{"no capacitance", func(b *Builder) {
			b.Resistor(Root, "x", 1)
		}, "no capacitance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("in")
			tc.build(b)
			_, err := b.Build()
			if err == nil {
				t.Fatal("Build succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLookupAndNames(t *testing.T) {
	tr, k, e := fig3Tree(t)
	if id, ok := tr.Lookup("k"); !ok || id != k {
		t.Errorf("Lookup(k) = %d,%v", id, ok)
	}
	if id, ok := tr.Lookup("e"); !ok || id != e {
		t.Errorf("Lookup(e) = %d,%v", id, ok)
	}
	if _, ok := tr.Lookup("missing"); ok {
		t.Error("Lookup(missing) succeeded")
	}
}

func TestPathTo(t *testing.T) {
	tr, k, _ := fig3Tree(t)
	path := tr.PathTo(k)
	want := []string{"in", "a", "b", "k"}
	if len(path) != len(want) {
		t.Fatalf("path length %d, want %d", len(path), len(want))
	}
	for i, id := range path {
		if tr.Name(id) != want[i] {
			t.Errorf("path[%d] = %q, want %q", i, tr.Name(id), want[i])
		}
	}
}

func TestIsAncestorAndCommonAncestor(t *testing.T) {
	tr, k, e := fig3Tree(t)
	bID, _ := tr.Lookup("b")
	if !tr.IsAncestor(Root, k) {
		t.Error("root should be ancestor of k")
	}
	if !tr.IsAncestor(k, k) {
		t.Error("IsAncestor should be reflexive")
	}
	if tr.IsAncestor(k, e) {
		t.Error("k is not an ancestor of e")
	}
	if got := tr.CommonAncestor(k, e); got != bID {
		t.Errorf("CommonAncestor(k,e) = %q, want b", tr.Name(got))
	}
	if got := tr.CommonAncestor(k, k); got != k {
		t.Errorf("CommonAncestor(k,k) = %q, want k", tr.Name(got))
	}
}

// TestCommonAncestorMatchesPathSets checks the two-pointer walk against a
// path-set oracle (the deepest node of b's root path that lies on a's) for
// every node pair of random trees.
func TestCommonAncestorMatchesPathSets(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		tr := randomArenaTree(t, rng, 1+rng.Intn(40))
		for a := range tr.NumNodes() {
			onA := map[NodeID]bool{}
			for _, x := range tr.PathTo(NodeID(a)) {
				onA[x] = true
			}
			for b := range tr.NumNodes() {
				path := tr.PathTo(NodeID(b))
				want := Root
				for _, x := range path {
					if onA[x] {
						want = x
					}
				}
				if got := tr.CommonAncestor(NodeID(a), NodeID(b)); got != want {
					t.Fatalf("trial %d: CommonAncestor(%d, %d) = %d, want %d", trial, a, b, got, want)
				}
			}
		}
	}
}

func TestCommonAncestorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	tr := randomArenaTree(t, rand.New(rand.NewSource(23)), 80)
	n := NodeID(tr.NumNodes())
	var sink NodeID
	allocs := testing.AllocsPerRun(20, func() {
		for a := NodeID(0); a < n; a += 7 {
			for b := NodeID(0); b < n; b += 5 {
				sink += tr.CommonAncestor(a, b)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("CommonAncestor allocates %v times per run", allocs)
	}
	_ = sink
}

func TestDepthAndWalkOrder(t *testing.T) {
	tr, _, _ := fig3Tree(t)
	if got := tr.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	seen := make(map[NodeID]bool)
	tr.Walk(func(id NodeID) {
		if id != Root && !seen[tr.Parent(id)] {
			t.Errorf("node %q visited before its parent", tr.Name(id))
		}
		seen[id] = true
	})
	if len(seen) != tr.NumNodes() {
		t.Errorf("Walk visited %d nodes, want %d", len(seen), tr.NumNodes())
	}
}

func TestStringRendering(t *testing.T) {
	tr, _, _ := fig3Tree(t)
	s := tr.String()
	for _, want := range []string{"in (input)", "R=16", "*output*", "[C=1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestValidateRejectsCorruptTree(t *testing.T) {
	tr, _, _ := fig3Tree(t)
	// Corrupt a copy's parent pointer to form a forward reference.
	bad := &Tree{
		parent: append([]int32(nil), tr.parent...), kind: tr.kind,
		edgeR: tr.edgeR, edgeC: tr.edgeC, nodeC: tr.nodeC, name: tr.name, outputs: tr.outputs,
	}
	bad.parent[1] = 3
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted corrupt parent ordering")
	}
}

func TestTotalCapIncludesLines(t *testing.T) {
	b := NewBuilder("in")
	n1 := b.Line(Root, "n1", 10, 3)
	b.Capacitor(n1, 2)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.TotalCap(); math.Abs(got-5) > 1e-12 {
		t.Errorf("TotalCap = %g, want 5", got)
	}
}
