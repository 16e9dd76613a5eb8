package rctree

import "fmt"

// Times holds the three characteristic times of an RC tree at one output,
// plus the input-to-output resistance Ree. Units follow the element units:
// with ohms and farads the times are seconds; with ohms and picofarads,
// picoseconds.
//
//	TP  = Σk Rkk·Ck          (eq. 5; output independent)
//	TD  = Σk Rke·Ck          (eq. 1; Elmore's first moment)
//	TR  = Σk Rke²·Ck / Ree   (eq. 6)
//
// Sums over lumped capacitors become integrals over distributed lines; this
// package evaluates those integrals in closed form.
type Times struct {
	TP  float64
	TD  float64
	TR  float64
	Ree float64
}

// Validate checks the paper's eq. 7 ordering TR <= TD <= TP within a small
// relative tolerance, plus positivity. A violation indicates a malformed
// network or a bug upstream.
func (tm Times) Validate() error {
	const tol = 1e-9
	scale := tm.TP
	if scale < 1 {
		scale = 1
	}
	switch {
	case tm.TP < 0 || tm.TD < 0 || tm.TR < 0 || tm.Ree < 0:
		return fmt.Errorf("rctree: negative characteristic time: %+v", tm)
	case tm.TR > tm.TD+tol*scale:
		return fmt.Errorf("rctree: TR=%g > TD=%g violates eq. 7", tm.TR, tm.TD)
	case tm.TD > tm.TP+tol*scale:
		return fmt.Errorf("rctree: TD=%g > TP=%g violates eq. 7", tm.TD, tm.TP)
	}
	return nil
}

// TPTotal computes TP = Σ Rkk·Ck for the whole tree in a single pass,
// including the closed-form contribution of distributed lines: a line with
// resistance R and capacitance C entered at upstream path resistance r0
// contributes C·(r0 + R/2).
func (t *Tree) TPTotal() float64 {
	rkk := make([]float64, len(t.parent))
	var tp float64
	for i := 1; i < len(t.parent); i++ {
		r0 := rkk[t.parent[i]]
		rkk[i] = r0 + t.edgeR[i]
		tp += t.nodeC[i] * rkk[i]
		if EdgeKind(t.kind[i]) == EdgeLine {
			tp += t.edgeC[i] * (r0 + t.edgeR[i]/2)
		}
	}
	return tp
}

// Scratch holds the per-pass working arrays of TimesFlat and TimesFlatAll so
// a caller analyzing many trees (or many outputs) can reuse the allocations.
// A Scratch must not be shared between goroutines; give each worker its own.
// The zero value is ready to use.
type Scratch struct {
	onPath []bool
	rkk    []float64
	rke    []float64
	// The flat all-outputs sweep (TimesFlatAll): per-node on-path bits, the
	// node-major common-path column, the per-output TD and TR-numerator
	// accumulators, and a results buffer callers may hand back as dst.
	on     []uint64
	rkeAll []float64
	acc    []float64
	times  []Times
}

// grow resizes the scratch arrays to n elements and zeroes onPath (the only
// array whose stale contents would leak between passes; rkk and rke are
// written before they are read).
func (s *Scratch) grow(n int) {
	if cap(s.onPath) < n {
		s.onPath = make([]bool, n)
		s.rke = make([]float64, n)
	} else {
		s.onPath = s.onPath[:n]
		s.rke = s.rke[:n]
		clear(s.onPath)
	}
	if cap(s.rkk) < n {
		s.rkk = make([]float64, n)
	}
	s.rkk = s.rkk[:n]
	// Index 0 (the root) is read but never written by the pass.
	s.rkk[0] = 0
	s.rke[0] = 0
}

// growAll sizes the scratch for one TimesFlatAll sweep over n nodes and k
// outputs, zeroing what the sweep reads before writing: the on-path bits,
// the accumulators, and the root's common-path row.
func (s *Scratch) growAll(n, k int) {
	if cap(s.on) < n {
		s.on = make([]uint64, n)
	}
	if cap(s.rkk) < n {
		s.rkk = make([]float64, n)
	}
	if cap(s.rkeAll) < n*k {
		s.rkeAll = make([]float64, n*k)
	}
	if cap(s.acc) < 2*k {
		s.acc = make([]float64, 2*k)
	}
	s.on = s.on[:n]
	s.rkk = s.rkk[:n]
	s.rkeAll = s.rkeAll[:n*k]
	s.acc = s.acc[:2*k]
	clear(s.on)
	clear(s.acc)
	clear(s.rkeAll[:k])
	s.rkk[0] = 0
}

// Times returns a k-element buffer owned by the scratch, to receive
// TimesFlatAll results without allocating. Its contents are overwritten by
// the next call.
func (s *Scratch) Times(k int) []Times {
	if cap(s.times) < k {
		s.times = make([]Times, k)
	}
	return s.times[:k]
}

// CharacteristicTimes computes TP, TDe, TRe and Ree for output e in a single
// topological sweep over the tree's columns (O(n) per output, the
// complexity the paper's §IV constructive algorithm achieves). It allocates
// fresh scratch on every call; hot loops should hold a Scratch and call
// CharacteristicTimesInto.
func (t *Tree) CharacteristicTimes(e NodeID) (Times, error) {
	return t.CharacteristicTimesInto(e, &Scratch{})
}

// CharacteristicTimesInto is CharacteristicTimes with caller-owned scratch:
// TimesFlat over the tree's own columns, the one per-output kernel.
func (t *Tree) CharacteristicTimesInto(e NodeID, s *Scratch) (Times, error) {
	return TimesFlat(t.parent, t.kind, t.edgeR, t.edgeC, t.nodeC, int(e), s)
}

// CharacteristicTimesRef is a deliberately simple O(n·depth) reference
// implementation used to cross-check CharacteristicTimes in tests: for every
// capacitor it finds the common ancestor with the output explicitly and sums
// the definitions term by term.
func (t *Tree) CharacteristicTimesRef(e NodeID) (Times, error) {
	if int(e) < 0 || int(e) >= len(t.parent) {
		return Times{}, fmt.Errorf("rctree: output id %d out of range", e)
	}
	var tp, td, trNum float64
	for i := 1; i < len(t.parent); i++ {
		rkk := t.PathResistance(NodeID(i))
		if cn := t.nodeC[i]; cn > 0 {
			rke := t.commonResistance(NodeID(i), e)
			tp += cn * rkk
			td += cn * rke
			trNum += cn * rke * rke
		}
		if EdgeKind(t.kind[i]) == EdgeLine && t.edgeC[i] > 0 {
			r, c := t.edgeR[i], t.edgeC[i]
			r0 := rkk - r
			tp += c * (r0 + r/2)
			if t.IsAncestor(NodeID(i), e) {
				td += c * (r0 + r/2)
				trNum += c * (r0*r0 + r0*r + r*r/3)
			} else {
				// Common resistance with e is that of the deepest common
				// ancestor of the line's downstream node and e; since the
				// line is off the path, that ancestor is at or above the
				// line's upstream node.
				rke := t.commonResistance(NodeID(i), e)
				td += c * rke
				trNum += c * rke * rke
			}
		}
	}
	ree := t.PathResistance(e)
	tm := Times{TP: tp, TD: td, Ree: ree}
	if ree > 0 {
		tm.TR = trNum / ree
	}
	if err := tm.Validate(); err != nil {
		return Times{}, err
	}
	return tm, nil
}

// commonResistance returns Rke: the resistance of the common portion of the
// root paths of k and e.
func (t *Tree) commonResistance(k, e NodeID) float64 {
	a := t.CommonAncestor(k, e)
	return t.PathResistance(a)
}

// AllCharacteristicTimes computes Times for every designated output, keyed by
// output node ID, in O(n · outputs).
func (t *Tree) AllCharacteristicTimes() (map[NodeID]Times, error) {
	out := make(map[NodeID]Times, len(t.outputs))
	var scratch Scratch
	for _, e := range t.outputs {
		tm, err := t.CharacteristicTimesInto(e, &scratch)
		if err != nil {
			return nil, fmt.Errorf("rctree: output %q: %w", t.name[e], err)
		}
		out[e] = tm
	}
	return out, nil
}

// PathResistances returns the prefix resistance Rkk (input-to-node path
// resistance) for every node in one O(n) pass. Index 0 (the input) is 0.
// This is the per-node prefix array the incremental engine (internal/incr)
// seeds its overlay from.
func (t *Tree) PathResistances() []float64 {
	rkk := make([]float64, len(t.parent))
	for i := 1; i < len(t.parent); i++ {
		rkk[i] = rkk[t.parent[i]] + t.edgeR[i]
	}
	return rkk
}

// SubtreeCaps returns, for every node, the total capacitance at or below it:
// the node's lumped capacitor, the distributed capacitance of its own parent
// element, and everything in its descendants — the ΣC subtree aggregate of
// the incremental engine. Index 0 holds the tree's total capacitance.
func (t *Tree) SubtreeCaps() []float64 {
	n := len(t.parent)
	sub := make([]float64, n)
	for i := n - 1; i >= 1; i-- {
		sub[i] += t.nodeC[i] + t.edgeC[i]
		sub[t.parent[i]] += sub[i]
	}
	sub[0] += t.nodeC[0]
	return sub
}

// ElmoreAll computes the Elmore delay TDe for every node simultaneously in
// two passes (O(n) total): a bottom-up accumulation of downstream
// capacitance, then a top-down prefix walk adding R_edge · C_downstream along
// every root path. It is the classical linear-time all-outputs algorithm and
// serves as the baseline the paper references (Elmore, 1948).
//
// For a line edge the downstream capacitance seen by the edge's own
// resistance is C_sub + C_line/2 (its distributed capacitance charges through
// half its resistance on average), which matches the closed-form integrals in
// CharacteristicTimes for on-path lines.
func (t *Tree) ElmoreAll() []float64 {
	n := len(t.parent)
	sub := t.SubtreeCaps()
	td := make([]float64, n)
	for i := 1; i < n; i++ {
		// Resistance edgeR[i] charges everything at or below node i, except
		// that the line's own capacitance charges through half of it.
		td[i] = td[t.parent[i]] + t.edgeR[i]*(sub[i]-t.edgeC[i]/2)
	}
	return td
}
