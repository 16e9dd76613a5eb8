package rctree

import (
	"fmt"
	"math"
)

// Arena is a flat, index-based structure-of-arrays (SoA) view of a Tree:
// one slice per field, children encoded as a contiguous CSR index range, and
// nodes stored in the same topological (parent-before-child) order the Tree
// guarantees. The layout is cache-friendly for the linear accumulation passes
// the characteristic-times computation performs, trivially serializable, and
// free of per-node pointer chasing:
//
//	index:     0      1      2      ...   n-1
//	Parent:   [-1  ,  p1  ,  p2  ,  ...       ]   parent index (-1 at root)
//	Kind:     [none,  k1  ,  k2  ,  ...       ]   edge element kind
//	EdgeR:    [ 0  ,  r1  ,  r2  ,  ...       ]   element resistance
//	EdgeC:    [ 0  ,  c1  ,  c2  ,  ...       ]   distributed line capacitance
//	NodeC:    [ c0 ,  c1  ,  c2  ,  ...       ]   lumped capacitance at node
//	ChildOff: [ o0 ,  o1  ,  ...  ,  on ]         CSR offsets (len n+1)
//	Children: [ .. node indices grouped by parent .. ]
//
// An Arena is immutable after NewArena; it is safe for concurrent readers,
// provided each goroutine uses its own Scratch.
type Arena struct {
	Parent   []int32
	Kind     []uint8 // EdgeKind
	EdgeR    []float64
	EdgeC    []float64
	NodeC    []float64
	ChildOff []int32 // len n+1; children of i are Children[ChildOff[i]:ChildOff[i+1]]
	Children []int32
	Names    []string
	Outputs  []int32
	byName   map[string]int32
}

// NewArena flattens a tree into its arena form in O(n).
func NewArena(t *Tree) *Arena {
	n := len(t.nodes)
	a := &Arena{
		Parent:   make([]int32, n),
		Kind:     make([]uint8, n),
		EdgeR:    make([]float64, n),
		EdgeC:    make([]float64, n),
		NodeC:    make([]float64, n),
		ChildOff: make([]int32, n+1),
		Children: make([]int32, 0, n-1),
		Names:    make([]string, n),
		Outputs:  make([]int32, len(t.outputs)),
		byName:   make(map[string]int32, n),
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		a.Parent[i] = int32(nd.parent)
		a.Kind[i] = uint8(nd.kind)
		a.EdgeR[i] = nd.edgeR
		a.EdgeC[i] = nd.edgeC
		a.NodeC[i] = nd.nodeC
		a.Names[i] = nd.name
		a.byName[nd.name] = int32(i)
	}
	for i := range t.nodes {
		a.ChildOff[i] = int32(len(a.Children))
		for _, c := range t.nodes[i].children {
			a.Children = append(a.Children, int32(c))
		}
	}
	a.ChildOff[n] = int32(len(a.Children))
	for i, o := range t.outputs {
		a.Outputs[i] = int32(o)
	}
	return a
}

// Len reports the number of nodes, including the input at index 0.
func (a *Arena) Len() int { return len(a.Parent) }

// Lookup finds a node index by name.
func (a *Arena) Lookup(name string) (int32, bool) {
	id, ok := a.byName[name]
	return id, ok
}

// TimesInto computes the characteristic times for output e using caller-owned
// scratch (TimesFlat over the arena's columns); it allocates nothing once the
// scratch has grown to the arena size.
func (a *Arena) TimesInto(e int32, s *Scratch) (Times, error) {
	return TimesFlat(a.Parent, a.Kind, a.EdgeR, a.EdgeC, a.NodeC, int(e), s)
}

// Materialize reconstructs the immutable Tree the arena was built from (or an
// equivalent one for a hand-assembled arena), validating the structural
// invariants. NewArena(a.Materialize()) reproduces a exactly — the round trip
// is idempotent, which the fuzz harness pins down.
func (a *Arena) Materialize() (*Tree, error) {
	n := len(a.Parent)
	if n == 0 {
		return nil, fmt.Errorf("rctree: empty arena")
	}
	nodes := make([]node, n)
	kids := make([]NodeID, len(a.Children))
	for i, c := range a.Children {
		kids[i] = NodeID(c)
	}
	byName := make(map[string]NodeID, n)
	for i := 0; i < n; i++ {
		nodes[i] = node{
			name:     a.Names[i],
			parent:   NodeID(a.Parent[i]),
			kind:     EdgeKind(a.Kind[i]),
			edgeR:    a.EdgeR[i],
			edgeC:    a.EdgeC[i],
			nodeC:    a.NodeC[i],
			children: kids[a.ChildOff[i]:a.ChildOff[i+1]:a.ChildOff[i+1]],
		}
		if _, dup := byName[a.Names[i]]; dup {
			return nil, fmt.Errorf("rctree: arena has duplicate node name %q", a.Names[i])
		}
		byName[a.Names[i]] = NodeID(i)
	}
	outs := make([]NodeID, len(a.Outputs))
	for i, o := range a.Outputs {
		outs[i] = NodeID(o)
	}
	t := &Tree{nodes: nodes, outputs: outs, byName: byName}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// TimesFlat is the arena-form characteristic-times pass for one output e
// over flat parallel arrays describing one tree in topological order
// (parent[0] == -1 at the root). It is the k = 1 call of TimesFlatAll, so
// the design-level sweep and this single-output form share one kernel, and
// it allocates nothing once s has grown to len(parent) elements.
func TimesFlat(parent []int32, kind []uint8, edgeR, edgeC, nodeC []float64, e int, s *Scratch) (Times, error) {
	if e < 0 || e >= len(parent) {
		return Times{}, fmt.Errorf("rctree: output id %d out of range", e)
	}
	outs := [1]int32{int32(e)}
	var dst [1]Times
	if _, err := TimesFlatAll(parent, kind, edgeR, edgeC, nodeC, outs[:], dst[:], s); err != nil {
		return Times{}, err
	}
	return dst[0], nil
}

// fusedOutputs caps how many outputs one sweep carries (the on-path marks
// are one uint64 word per node), and fusedCells caps the node × output
// common-path column one sweep fills, so a very large net with many outputs
// takes more, narrower sweeps instead of an O(nodes × outputs) scratch.
const (
	fusedOutputs = 64
	fusedCells   = 1 << 16
)

// TimesFlatAll computes the characteristic times of every output in outs
// into dst (len(dst) >= len(outs)) with one topological sweep per net
// instead of one per output. By eq. 5, TP = Σ Rkk·Ck is output independent,
// so the Rkk column and TP are accumulated once; TD and TR differ between
// outputs only through the common-path resistance Rke, which the sweep
// carries as a node-major column per output, choosing between the on-path
// value Rkk and the branch-point value with a bit-select rather than a
// branch. Every per-output accumulator adds the same terms in the same order
// as a separate single-output sweep, so the results are bit-identical to it.
// A sweep carries at most 64 outputs, and fewer on nets past 1,024 nodes.
//
// It returns the number n of leading outputs whose times were written; when
// n < len(outs), the error belongs to outs[n], the first output a
// per-output loop would have failed on. It allocates nothing once s
// has grown to the net and output count.
func TimesFlatAll(parent []int32, kind []uint8, edgeR, edgeC, nodeC []float64, outs []int32, dst []Times, s *Scratch) (int, error) {
	valid := len(outs)
	for j, e := range outs {
		if e < 0 || int(e) >= len(parent) {
			valid = j
			break
		}
	}
	width := min(fusedOutputs, max(1, fusedCells/max(1, len(parent))))
	for lo := 0; lo < valid; lo += width {
		hi := min(lo+width, valid)
		if j, err := timesSweep(parent, kind, edgeR, edgeC, nodeC, outs[lo:hi], dst[lo:hi], s); err != nil {
			return lo + j, err
		}
	}
	if valid < len(outs) {
		return valid, fmt.Errorf("rctree: output id %d out of range", outs[valid])
	}
	return valid, nil
}

// pick returns a when bit is 1 and b when it is 0, by masking the IEEE bit
// patterns: exact for every value, and free of data-dependent branches.
func pick(bit uint64, a, b float64) float64 {
	m := -bit
	return math.Float64frombits(math.Float64bits(a)&m | math.Float64bits(b)&^m)
}

// timesSweep is one TimesFlatAll sweep over at most fusedOutputs outputs.
//
// For each output j the sweep maintains Rke at every node k: while
// descending along the input→e path it grows with each element (Rke = Rkk);
// the moment the walk leaves that path it freezes at the branch point's
// value. A line on the path has Rke = r0 + r·x at x∈[0,1] along it (r0 is
// the upstream Rkk, since the whole prefix is on the path); a line off the
// path shares the frozen value throughout.
func timesSweep(parent []int32, kind []uint8, edgeR, edgeC, nodeC []float64, outs []int32, dst []Times, s *Scratch) (int, error) {
	n, k := len(parent), len(outs)
	s.growAll(n, k)
	// Bit j of on[x] marks x as on the input→outs[j] path: set at each
	// output, then ORed up from child to parent in one reverse sweep.
	on := s.on
	for j, e := range outs {
		on[e] |= 1 << j
	}
	for i := n - 1; i > 0; i-- {
		on[parent[i]] |= on[i]
	}
	rkk, rke := s.rkk, s.rkeAll
	td, trNum := s.acc[:k], s.acc[k:2*k] // trNum = Σ Rke²·Ck
	var tp float64
	for i := 1; i < n; i++ {
		p := int(parent[i])
		r := edgeR[i]
		r0 := rkk[p]
		ri := r0 + r
		rkk[i] = ri
		cn := nodeC[i]
		tp += cn * ri
		w := on[i]
		cur := rke[i*k : i*k+k]
		up, tdk, trk := rke[p*k : p*k+k][:len(cur)], td[:len(cur)], trNum[:len(cur)]
		if EdgeKind(kind[i]) != EdgeLine {
			for j := range cur {
				v := pick(w>>j&1, ri, up[j])
				cur[j] = v
				tdk[j] += cn * v
				trk[j] += cn * v * v
			}
			continue
		}
		c := edgeC[i]
		tp += c * (r0 + r/2)
		onTD := c * (r0 + r/2)
		onTR := c * (r0*r0 + r0*r + r*r/3)
		for j := range cur {
			bit := w >> j & 1
			common0 := up[j]
			v := pick(bit, ri, common0)
			cur[j] = v
			// Lumped capacitance at node i, then the distributed line
			// into it: two rounded additions, as in a per-output sweep.
			d, q := tdk[j], trk[j]
			d += cn * v
			q += cn * v * v
			d += pick(bit, onTD, c*common0)
			q += pick(bit, onTR, c*common0*common0)
			tdk[j], trk[j] = d, q
		}
	}
	for j, e := range outs {
		ree := rkk[e]
		tm := Times{TP: tp, TD: td[j], Ree: ree}
		if ree > 0 {
			tm.TR = trNum[j] / ree
		} else if trNum[j] != 0 {
			return j, fmt.Errorf("rctree: output %d has Ree=0 but nonzero TR numerator", e)
		}
		if err := tm.Validate(); err != nil {
			return j, err
		}
		dst[j] = tm
	}
	return k, nil
}
