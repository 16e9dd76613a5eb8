// Package rctree models RC tree networks as defined by Penfield and
// Rubinstein: a resistor tree with no resistor to ground, driven at a single
// input node, where every node may carry a lumped capacitor to ground and any
// resistor may be replaced by a distributed uniform RC line.
//
// The package provides a builder for constructing trees, structural
// validation, traversal helpers, and the computation of the three
// characteristic times (TP, TDe, TRe) for any output, including the
// closed-form contributions of distributed lines.
//
// A Tree has one form: flat columns (parent index, element kind, element R
// and C, lumped C, name) indexed by NodeID in parent-before-child order,
// with CSR children. Builder appends to those columns and derives the CSR
// children once, in Build; FromColumns rebuilds a tree from Tree.Columns;
// FromInterned takes columns whose names a parser has already made unique;
// and the characteristic-times kernel (TimesFlat, TimesFlatAll) sweeps the
// same columns, whether they belong to one tree or to a design's
// concatenation of many.
package rctree

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node within a Tree. The input (root) node of a valid
// tree is always NodeID 0.
type NodeID int

// Root is the NodeID of the input node of every tree built by Builder.
const Root NodeID = 0

// EdgeKind distinguishes the element connecting a node to its parent.
type EdgeKind int

const (
	// EdgeNone marks the root, which has no parent element.
	EdgeNone EdgeKind = iota
	// EdgeResistor is a lumped resistor (R > 0, C == 0).
	EdgeResistor
	// EdgeLine is a distributed uniform RC line (R >= 0, C >= 0).
	EdgeLine
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeNone:
		return "none"
	case EdgeResistor:
		return "resistor"
	case EdgeLine:
		return "line"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// Tree is an immutable RC tree produced by a Builder, stored as flat
// columns indexed by NodeID in topological (parent-before-child) order, with
// the children of every node as one CSR index range:
//
//	index:     0      1      2      ...   n-1
//	parent:   [-1  ,  p1  ,  p2  ,  ...       ]   parent index (-1 at the root)
//	kind:     [none,  k1  ,  k2  ,  ...       ]   element into the node
//	edgeR:    [ 0  ,  r1  ,  r2  ,  ...       ]   element resistance
//	edgeC:    [ 0  ,  c1  ,  c2  ,  ...       ]   distributed line capacitance
//	nodeC:    [ c0 ,  c1  ,  c2  ,  ...       ]   lumped capacitance at node
//	name:     [ in ,  n1  ,  n2  ,  ...       ]
//	childOff: [ o0 ,  o1  ,  ...  ,  on ]         CSR offsets (len n+1)
//	children: [ .. node ids grouped by parent, ascending within a group .. ]
//
// The characteristic-times passes are linear sweeps over these columns.
// Children returns a capacity-limited window of the shared children column,
// so appending to it copies instead of overwriting a sibling's children.
// The name index behind Lookup is the one Builder or FromColumns checked
// names against; a tree from FromInterned builds it on its first Lookup.
// The zero value is not usable; obtain trees from Builder.Build,
// FromColumns, FromInterned, netlist parsing, or the algebra package.
type Tree struct {
	parent   []int32
	kind     []uint8 // EdgeKind
	edgeR    []float64
	edgeC    []float64
	nodeC    []float64
	name     []string
	childOff []int32 // len n+1; children of i are children[childOff[i]:childOff[i+1]]
	children []NodeID
	outputs  []NodeID
	// byName is the name index, nil until built; concurrent first Lookups
	// may each build one, and the first stored wins.
	byName atomic.Pointer[map[string]NodeID]
}

// Columns is the flat form of a Tree: one slice per node field, indexed by
// NodeID in topological order, plus the designated outputs. Tree.Columns
// exposes a tree's own columns and FromColumns builds a validated tree from
// columns, so tree → columns → tree reproduces the tree exactly.
type Columns struct {
	Parent  []int32 // parent index, -1 at the root
	Kind    []uint8 // EdgeKind of the element into the node
	EdgeR   []float64
	EdgeC   []float64
	NodeC   []float64
	Names   []string
	Outputs []NodeID
}

// Columns returns the tree's own columns. They must not be modified.
func (t *Tree) Columns() Columns {
	return Columns{
		Parent: t.parent, Kind: t.kind, EdgeR: t.edgeR, EdgeC: t.edgeC,
		NodeC: t.nodeC, Names: t.name, Outputs: t.outputs,
	}
}

// FromColumns builds a tree from its flat form, refusing columns of unequal
// length, duplicate node names and every structural fault Validate reports.
// The tree takes ownership of c's slices; the caller must not modify them
// afterwards.
func FromColumns(c Columns) (*Tree, error) {
	n := len(c.Parent)
	if len(c.Kind) != n || len(c.EdgeR) != n || len(c.EdgeC) != n || len(c.NodeC) != n || len(c.Names) != n {
		return nil, fmt.Errorf("rctree: columns have unequal lengths")
	}
	byName := make(map[string]NodeID, n)
	for i, name := range c.Names {
		if _, dup := byName[name]; dup {
			return nil, fmt.Errorf("rctree: duplicate node name %q", name)
		}
		byName[name] = NodeID(i)
	}
	return newTree(c, byName, false)
}

// FromInterned is Builder.Build for columns whose node names the caller
// has already made unique, as a parser that interns them does: it
// validates c, designates every leaf when c has no outputs, and defers the
// name index to the first Lookup. The tree takes ownership of c's slices.
func FromInterned(c Columns) (*Tree, error) { return newTree(c, nil, true) }

// newTree validates c and derives its CSR children in one counting pass over
// the parents. With leafOutputs set, a tree without designated outputs
// designates every leaf (always in range, so validating first is enough).
func newTree(c Columns, byName map[string]NodeID, leafOutputs bool) (*Tree, error) {
	t := &Tree{
		parent: c.Parent, kind: c.Kind, edgeR: c.EdgeR, edgeC: c.EdgeC,
		nodeC: c.NodeC, name: c.Names, outputs: c.Outputs,
	}
	if byName != nil {
		t.byName.Store(&byName)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := len(t.parent)
	off := make([]int32, n+1)
	for _, p := range t.parent[1:] {
		off[p+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// Fill each group at its cursor off[p], in ascending id order; each
	// cursor ends at the next group's start, so shifting restores offsets.
	kids := make([]NodeID, n-1)
	for i, p := range t.parent[1:] {
		kids[off[p]] = NodeID(i + 1)
		off[p]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	t.childOff, t.children = off, kids
	if leafOutputs && len(t.outputs) == 0 {
		for i := 1; i < n; i++ {
			if off[i] == off[i+1] {
				t.outputs = append(t.outputs, NodeID(i))
			}
		}
	}
	return t, nil
}

// NumNodes reports the number of nodes, including the input.
func (t *Tree) NumNodes() int { return len(t.parent) }

// Outputs returns the designated output nodes in the order they were added.
// The returned slice must not be modified.
func (t *Tree) Outputs() []NodeID { return t.outputs }

// Name returns the name of node id.
func (t *Tree) Name(id NodeID) string { return t.name[id] }

// Lookup finds a node by name. On a tree without a name index, the first
// Lookup builds one in O(n); it is safe to call from concurrent readers.
func (t *Tree) Lookup(name string) (NodeID, bool) {
	m := t.byName.Load()
	if m == nil {
		idx := make(map[string]NodeID, len(t.name))
		for i, nm := range t.name {
			idx[nm] = NodeID(i)
		}
		t.byName.CompareAndSwap(nil, &idx)
		m = t.byName.Load()
	}
	id, ok := (*m)[name]
	return id, ok
}

// LookupOutput finds a designated output by name: ok is false when no node
// has that name or the node it names is not an output. It scans the
// outputs, so it never builds the name index.
func (t *Tree) LookupOutput(name string) (NodeID, bool) {
	for _, o := range t.outputs {
		if t.name[o] == name {
			return o, true
		}
	}
	return 0, false
}

// Parent returns the parent of id, or -1 for the root.
func (t *Tree) Parent(id NodeID) NodeID { return NodeID(t.parent[id]) }

// Children returns the children of id in ascending id order. The slice is a
// capacity-limited window of the tree's children column: it must not be
// modified, and appending to it copies.
func (t *Tree) Children(id NodeID) []NodeID {
	a, b := t.childOff[id], t.childOff[id+1]
	return t.children[a:b:b]
}

// Edge describes the element connecting id to its parent.
func (t *Tree) Edge(id NodeID) (kind EdgeKind, r, c float64) {
	return EdgeKind(t.kind[id]), t.edgeR[id], t.edgeC[id]
}

// NodeCap returns the lumped capacitance attached at node id.
func (t *Tree) NodeCap(id NodeID) float64 { return t.nodeC[id] }

// TotalCap returns the sum of all capacitance in the tree, lumped and
// distributed.
func (t *Tree) TotalCap() float64 {
	var sum float64
	for i := range t.nodeC {
		sum += t.nodeC[i] + t.edgeC[i]
	}
	return sum
}

// TotalRes returns the sum of all resistance in the tree.
func (t *Tree) TotalRes() float64 {
	var sum float64
	for _, r := range t.edgeR {
		sum += r
	}
	return sum
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	depth := make([]int, len(t.parent))
	max := 0
	for i := 1; i < len(t.parent); i++ { // nodes are stored in topological order
		depth[i] = depth[t.parent[i]] + 1
		if depth[i] > max {
			max = depth[i]
		}
	}
	return max
}

// PathResistance returns the total resistance of the unique path from the
// input to node id (the quantity the paper writes as Rkk).
func (t *Tree) PathResistance(id NodeID) float64 {
	var r float64
	for id != Root {
		r += t.edgeR[id]
		id = NodeID(t.parent[id])
	}
	return r
}

// PathTo returns the node sequence from the input to id, inclusive.
func (t *Tree) PathTo(id NodeID) []NodeID {
	var rev []NodeID
	for {
		rev = append(rev, id)
		if id == Root {
			break
		}
		id = NodeID(t.parent[id])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// IsAncestor reports whether a is an ancestor of (or equal to) b.
func (t *Tree) IsAncestor(a, b NodeID) bool {
	for {
		if a == b {
			return true
		}
		if b == Root {
			return false
		}
		b = NodeID(t.parent[b])
	}
}

// CommonAncestor returns the deepest node that lies on both root paths. A
// parent precedes its children, so the larger of two distinct ids is never
// an ancestor of the smaller: stepping it up to its parent keeps both walks
// on their root paths until they meet, without allocating.
func (t *Tree) CommonAncestor(a, b NodeID) NodeID {
	for a != b {
		if a > b {
			a = NodeID(t.parent[a])
		} else {
			b = NodeID(t.parent[b])
		}
	}
	return a
}

// Walk visits every node in topological (parent-before-child) order.
func (t *Tree) Walk(fn func(id NodeID)) {
	for i := range t.parent {
		fn(NodeID(i))
	}
}

// String renders an indented ASCII view of the tree, useful in error
// messages and examples.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(id NodeID, depth int)
	rec = func(id NodeID, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch EdgeKind(t.kind[id]) {
		case EdgeNone:
			fmt.Fprintf(&b, "%s (input)", t.name[id])
		case EdgeResistor:
			fmt.Fprintf(&b, "%s --R=%g--", t.name[id], t.edgeR[id])
		case EdgeLine:
			fmt.Fprintf(&b, "%s --URC R=%g C=%g--", t.name[id], t.edgeR[id], t.edgeC[id])
		}
		if t.nodeC[id] != 0 {
			fmt.Fprintf(&b, " [C=%g]", t.nodeC[id])
		}
		if t.isOutput(id) {
			b.WriteString(" *output*")
		}
		b.WriteByte('\n')
		for _, c := range t.Children(id) {
			rec(c, depth+1)
		}
	}
	rec(Root, 0)
	return b.String()
}

func (t *Tree) isOutput(id NodeID) bool {
	for _, o := range t.outputs {
		if o == id {
			return true
		}
	}
	return false
}

// Builder constructs a Tree incrementally, appending each node to the
// tree's columns. Methods that add elements return the new node's ID;
// errors are deferred and reported by Build so call sites stay linear.
type Builder struct {
	c      Columns
	byName map[string]NodeID
	errs   []error
}

// NewBuilder returns a Builder whose input node has the given name (the empty
// string defaults to "in").
func NewBuilder(inputName string) *Builder { return NewBuilderSize(inputName, 1, 0) }

// NewBuilderSize is NewBuilder for a tree of about nodes nodes and outputs
// designated outputs: the columns, the name index and the output list are
// sized for that many up front, so a builder fed known counts never regrows
// them.
func NewBuilderSize(inputName string, nodes, outputs int) *Builder {
	if inputName == "" {
		inputName = "in"
	}
	nodes = max(nodes, 1)
	b := &Builder{
		c: Columns{
			Parent:  make([]int32, 0, nodes),
			Kind:    make([]uint8, 0, nodes),
			EdgeR:   make([]float64, 0, nodes),
			EdgeC:   make([]float64, 0, nodes),
			NodeC:   make([]float64, 0, nodes),
			Names:   make([]string, 0, nodes),
			Outputs: make([]NodeID, 0, outputs),
		},
		byName: make(map[string]NodeID, nodes),
	}
	b.push(inputName, -1, EdgeNone, 0, 0)
	return b
}

// push appends one node to the columns and the name index.
func (b *Builder) push(name string, parent NodeID, kind EdgeKind, r, c float64) NodeID {
	id := NodeID(len(b.c.Parent))
	b.c.Parent = append(b.c.Parent, int32(parent))
	b.c.Kind = append(b.c.Kind, uint8(kind))
	b.c.EdgeR = append(b.c.EdgeR, r)
	b.c.EdgeC = append(b.c.EdgeC, c)
	b.c.NodeC = append(b.c.NodeC, 0)
	b.c.Names = append(b.c.Names, name)
	b.byName[name] = id
	return id
}

func (b *Builder) errf(format string, args ...any) NodeID {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return Root
}

func (b *Builder) addNode(parent NodeID, name string, kind EdgeKind, r, c float64) NodeID {
	if int(parent) < 0 || int(parent) >= len(b.c.Parent) {
		return b.errf("rctree: parent %d out of range", parent)
	}
	if name == "" {
		name = fmt.Sprintf("n%d", len(b.c.Parent))
	}
	if _, dup := b.byName[name]; dup {
		return b.errf("rctree: duplicate node name %q", name)
	}
	return b.push(name, parent, kind, r, c)
}

// Resistor adds a lumped resistor of value r ohms from parent to a new node.
func (b *Builder) Resistor(parent NodeID, name string, r float64) NodeID {
	if r <= 0 {
		return b.errf("rctree: resistor %q must have R > 0, got %g", name, r)
	}
	return b.addNode(parent, name, EdgeResistor, r, 0)
}

// Line adds a distributed uniform RC line with total resistance r and total
// capacitance c from parent to a new node. Either value may be zero (the
// paper's URC primitive degenerates to a lumped capacitor or resistor), but
// not both.
func (b *Builder) Line(parent NodeID, name string, r, c float64) NodeID {
	switch {
	case r < 0 || c < 0:
		return b.errf("rctree: line %q must have R, C >= 0, got R=%g C=%g", name, r, c)
	case r == 0 && c == 0:
		return b.errf("rctree: line %q has R=0 and C=0", name)
	case c == 0:
		return b.addNode(parent, name, EdgeResistor, r, 0)
	case r == 0:
		// A zero-resistance line is a lumped capacitor at the parent node.
		b.Capacitor(parent, c)
		return parent
	}
	return b.addNode(parent, name, EdgeLine, r, c)
}

// Capacitor attaches a lumped capacitor of value c farads from node to
// ground. Multiple capacitors at a node accumulate.
func (b *Builder) Capacitor(node NodeID, c float64) {
	if c < 0 {
		b.errf("rctree: capacitor at node %d must have C >= 0, got %g", node, c)
		return
	}
	if int(node) < 0 || int(node) >= len(b.c.Parent) {
		b.errf("rctree: capacitor parent %d out of range", node)
		return
	}
	b.c.NodeC[node] += c
}

// Name returns the name of node id, which must have been added.
func (b *Builder) Name(id NodeID) string { return b.c.Names[id] }

// Output marks node as an output of the tree. Outputs may be taken anywhere,
// per the paper; marking the same node twice is an error.
func (b *Builder) Output(node NodeID) {
	if int(node) < 0 || int(node) >= len(b.c.Parent) {
		b.errf("rctree: output %d out of range", node)
		return
	}
	for _, o := range b.c.Outputs {
		if o == node {
			b.errf("rctree: node %q marked as output twice", b.c.Names[node])
			return
		}
	}
	b.c.Outputs = append(b.c.Outputs, node)
}

// Build validates and returns the tree. If no output was designated, every
// leaf is promoted to an output (a convenient default for exploratory use).
func (b *Builder) Build() (*Tree, error) {
	if len(b.errs) > 0 {
		msgs := make([]string, len(b.errs))
		for i, e := range b.errs {
			msgs[i] = e.Error()
		}
		sort.Strings(msgs)
		return nil, fmt.Errorf("rctree: invalid tree: %s", strings.Join(msgs, "; "))
	}
	return newTree(b.c, b.byName, true)
}

// Validate checks the structural invariants of the tree: a single root at
// index 0, parent indices preceding children (acyclicity), nonnegative
// element values, and at least some capacitance and resistance so the
// characteristic times are well defined.
func (t *Tree) Validate() error {
	if len(t.parent) == 0 {
		return fmt.Errorf("rctree: empty tree")
	}
	if t.parent[0] != -1 || EdgeKind(t.kind[0]) != EdgeNone {
		return fmt.Errorf("rctree: node 0 must be the input")
	}
	for i := 1; i < len(t.parent); i++ {
		name, p, kind := t.name[i], t.parent[i], EdgeKind(t.kind[i])
		if p < 0 || int(p) >= i {
			return fmt.Errorf("rctree: node %q has invalid parent %d", name, p)
		}
		if kind == EdgeNone {
			return fmt.Errorf("rctree: non-root node %q lacks a parent element", name)
		}
		if t.edgeR[i] < 0 || t.edgeC[i] < 0 || t.nodeC[i] < 0 {
			return fmt.Errorf("rctree: node %q has a negative element value", name)
		}
		if kind == EdgeResistor && t.edgeR[i] <= 0 {
			return fmt.Errorf("rctree: resistor to node %q must be positive", name)
		}
	}
	if t.TotalCap() <= 0 {
		return fmt.Errorf("rctree: tree has no capacitance; characteristic times undefined")
	}
	for _, o := range t.outputs {
		if int(o) < 0 || int(o) >= len(t.parent) {
			return fmt.Errorf("rctree: output id %d out of range", o)
		}
	}
	return nil
}
