package rctree

import (
	"fmt"
	"math"
)

// TimesFlat is the characteristic-times pass for one output e over flat
// parallel columns describing one tree in topological order (parent[0] ==
// -1 at the root), as Tree.Columns gives them. It is the one per-output
// kernel: Tree.CharacteristicTimes runs it over the tree's own columns, and
// TimesFlatAll must reproduce it bit for bit, error for error. It allocates
// nothing once s has grown to len(parent) elements.
//
// The sweep maintains, for each node k, the common path resistance Rke:
// while descending along the input→e path it grows with each element; the
// moment the sweep leaves that path it freezes at the branch point's value.
func TimesFlat(parent []int32, kind []uint8, edgeR, edgeC, nodeC []float64, e int, s *Scratch) (Times, error) {
	n := len(parent)
	if e < 0 || e >= n {
		return Times{}, fmt.Errorf("rctree: output id %d out of range", e)
	}
	s.grow(n)
	// Reslicing every column to n lets the compiler drop the bounds checks
	// on index i in the sweep.
	kind, edgeR, edgeC, nodeC = kind[:n], edgeR[:n], edgeC[:n], nodeC[:n]
	onPath, rkk, rke := s.onPath[:n], s.rkk[:n], s.rke[:n]
	for x := e; ; x = int(parent[x]) {
		onPath[x] = true
		if x == 0 {
			break
		}
	}
	var tp, td, trNum float64 // trNum = Σ Rke²·Ck
	for i := 1; i < n; i++ {
		p := parent[i]
		r0 := rkk[p]
		rkk[i] = r0 + edgeR[i]
		common0 := rke[p]
		if onPath[i] {
			rke[i] = rkk[i] // still on the input→e path: common path grows
		} else {
			rke[i] = common0 // frozen at the branch point
		}
		// Lumped capacitance at node i.
		tp += nodeC[i] * rkk[i]
		td += nodeC[i] * rke[i]
		trNum += nodeC[i] * rke[i] * rke[i]
		// Distributed line along the edge into node i.
		if EdgeKind(kind[i]) == EdgeLine {
			r, c := edgeR[i], edgeC[i]
			tp += c * (r0 + r/2)
			if onPath[i] {
				// Points x∈[0,1] have Rke = common0 + r·x (and here
				// common0 == r0 because the whole prefix is on the path).
				td += c * (common0 + r/2)
				trNum += c * (common0*common0 + common0*r + r*r/3)
			} else {
				// The entire line shares the frozen common resistance.
				td += c * common0
				trNum += c * common0 * common0
			}
		}
	}
	ree := rkk[e]
	tm := Times{TP: tp, TD: td, Ree: ree}
	if ree > 0 {
		tm.TR = trNum / ree
	} else if trNum != 0 {
		return Times{}, fmt.Errorf("rctree: output %d has Ree=0 but nonzero TR numerator", e)
	}
	if err := tm.Validate(); err != nil {
		return Times{}, err
	}
	return tm, nil
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
// instead of one TimesFlat sweep per output. By eq. 5, TP = Σ Rkk·Ck is output independent,
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
