package mcd

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/rctree"
)

// ScaleDesign rebuilds every net tree of d with per-net multiplicative
// factors: net i's resistances scale by rf[i], its capacitances (edge and
// grounded) by cf[i]. Stages, requires, and output designations carry over
// unchanged; stage delays are gate-intrinsic and do not scale. A nil factor
// slice means 1 everywhere; otherwise the slice must have one entry per net,
// in design net order.
//
// This is the reference construction the λ-scaled passes must agree with:
// the property tests check timing.VarArena.SetFactors + Propagate and
// timing.Session.Scaled against a full analysis of the ScaleDesign'd
// netlist, whose trees are re-swept at the scaled values.
func ScaleDesign(d *netlist.Design, rf, cf []float64) (*netlist.Design, error) {
	if rf != nil && len(rf) != len(d.Nets) {
		return nil, fmt.Errorf("mcd: %d R factors for %d nets", len(rf), len(d.Nets))
	}
	if cf != nil && len(cf) != len(d.Nets) {
		return nil, fmt.Errorf("mcd: %d C factors for %d nets", len(cf), len(d.Nets))
	}
	out := &netlist.Design{Name: d.Name, Stages: d.Stages, Requires: d.Requires}
	out.Nets = make([]netlist.DesignNet, len(d.Nets))
	for i := range d.Nets {
		rfi, cfi := 1.0, 1.0
		if rf != nil {
			rfi = rf[i]
		}
		if cf != nil {
			cfi = cf[i]
		}
		t, err := scaleTree(d.Nets[i].Tree, rfi, cfi)
		if err != nil {
			return nil, fmt.Errorf("mcd: net %q: %w", d.Nets[i].Name, err)
		}
		out.Nets[i] = netlist.DesignNet{Name: d.Nets[i].Name, Tree: t}
	}
	return out, nil
}

// scaleTree rebuilds one tree with uniform R and C factors from its
// columns: the scaled values are new columns, while the topology, names and
// output designation order are the tree's own immutable columns, shared.
func scaleTree(t *rctree.Tree, rf, cf float64) (*rctree.Tree, error) {
	c := t.Columns()
	return rctree.FromColumns(rctree.Columns{
		Parent:  c.Parent,
		Kind:    c.Kind,
		EdgeR:   scaled(c.EdgeR, rf),
		EdgeC:   scaled(c.EdgeC, cf),
		NodeC:   scaled(c.NodeC, cf),
		Names:   c.Names,
		Outputs: c.Outputs,
	})
}

// scaled returns a new slice holding f·v for every v in vs.
func scaled(vs []float64, f float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}
