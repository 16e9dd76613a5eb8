package rctree

import "fmt"

// Sensitivity holds the first-order derivatives of the characteristic times
// at one output with respect to every element value — the gradients a wire
// or driver sizer needs. All slices are indexed by NodeID.
//
// Because TP and TDe are linear in the capacitances and (per-path) linear in
// the resistances, these derivatives are exact, not linearizations:
//
//	∂TD/∂Ck  = Rke          ∂TP/∂Ck  = Rkk
//	∂TD/∂Rj  = Cdown(j,e)   ∂TP/∂Rj  = Cbelow(j)
//
// where Rj is the resistor into node j, Cbelow(j) is all capacitance at or
// below j, and Cdown(j,e) is that same capacitance when j lies on the
// input→e path, else 0 (moving an off-path resistor does not change any
// common-path resistance).
//
// Line edges expose the same derivatives with respect to their total R and
// total C, derived from the closed-form integrals.
type Sensitivity struct {
	Output NodeID
	// DTDdC[k] and DTPdC[k] are derivatives w.r.t. the lumped capacitance
	// at node k (for line edges, w.r.t. the line's total capacitance, see
	// DTDdLineC).
	DTDdC, DTPdC []float64
	// DTDdR[j] and DTPdR[j] are derivatives w.r.t. the resistance of the
	// element into node j (total resistance for lines).
	DTDdR, DTPdR []float64
}

// Sensitivities computes the exact gradients of TP and TDe at output e in
// O(n).
func (t *Tree) Sensitivities(e NodeID) (*Sensitivity, error) {
	if int(e) < 0 || int(e) >= len(t.parent) {
		return nil, fmt.Errorf("rctree: output id %d out of range", e)
	}
	n := len(t.parent)
	onPath := make([]bool, n)
	for x := e; ; x = NodeID(t.parent[x]) {
		onPath[x] = true
		if x == Root {
			break
		}
	}
	rkk := make([]float64, n)
	rke := make([]float64, n)
	for i := 1; i < n; i++ {
		rkk[i] = rkk[t.parent[i]] + t.edgeR[i]
		if onPath[i] {
			rke[i] = rkk[i]
		} else {
			rke[i] = rke[t.parent[i]]
		}
	}
	// Capacitance at or below each node, including line capacitance (which
	// belongs to the edge above the node; its sensitivity handling below
	// accounts for the half-R offset).
	below := make([]float64, n)
	for i := n - 1; i >= 1; i-- {
		below[i] += t.nodeC[i] + t.edgeC[i]
		below[t.parent[i]] += below[i]
	}

	s := &Sensitivity{
		Output: e,
		DTDdC:  make([]float64, n),
		DTPdC:  make([]float64, n),
		DTDdR:  make([]float64, n),
		DTPdR:  make([]float64, n),
	}
	for i := 1; i < n; i++ {
		p, isLine := t.parent[i], EdgeKind(t.kind[i]) == EdgeLine
		// Capacitance derivatives are the resistances themselves.
		s.DTPdC[i] = rkk[i]
		s.DTDdC[i] = rke[i]
		if isLine {
			// A line's capacitance is spread along the edge: the derivative
			// w.r.t. its total C is the average of its per-point values.
			r0 := rkk[p]
			s.DTPdC[i] = r0 + t.edgeR[i]/2
			if onPath[i] {
				s.DTDdC[i] = r0 + t.edgeR[i]/2
			} else {
				s.DTDdC[i] = rke[p]
			}
		}
		// Resistance derivatives: growing R into node i raises Rkk of all
		// capacitance at or below i.
		s.DTPdR[i] = below[i]
		if isLine {
			// The line's own capacitance sees on average half the growth.
			s.DTPdR[i] = below[i] - t.edgeC[i]/2
		}
		if onPath[i] {
			s.DTDdR[i] = s.DTPdR[i] // the common path grows identically
		}
	}
	return s, nil
}
