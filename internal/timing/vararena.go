package timing

import (
	"context"
	"fmt"

	"repro/internal/rctree"
)

// VarArena is a variation view over a graph's flat arena: the shared
// immutable topology plus a private copy of the R/C value columns that can be
// rescaled in place — global corner factors times per-net derating factors —
// and re-propagated without rebuilding a single tree. It is the compute core
// of design-level Monte Carlo (internal/mcd): one sample is one SetFactors
// call (a linear sweep over three float64 columns) plus one Propagate.
//
// A VarArena is single-goroutine; parallel sweeps give each worker its own
// Clone, which shares the topology and base values and allocates only the
// working columns and propagation state.
type VarArena struct {
	base *designArena // the graph's immutable arena (base R/C columns)
	work designArena  // shallow copy with private edgeR/edgeC/nodeC
	// nodeNet maps a global node index to its net index, so SetFactors can
	// apply per-net factors in one flat pass.
	nodeNet []int32
	th      float64
	st      *arenaState
	scratch rctree.Scratch
	eps     []VarEndpoint
}

// VarEndpoint is one timing endpoint of the design as the arena sees it:
// the output slot to read arrivals from and the required time governing its
// slack (+Inf when unconstrained). Endpoints appear in net order, then
// designation order — the deterministic order mcd's criticality tie-break
// relies on.
type VarEndpoint struct {
	Net      string
	Output   string
	Required float64
	Slot     int
}

// VarArena builds a variation view for the graph at the given threshold (0
// means 0.5) and default required time (<= 0 leaves endpoints without an
// explicit .require card unconstrained). Per-net factor slices passed to
// SetFactors are indexed by the design's net order (d.Nets), which is also
// the graph's node order.
func (g *Graph) VarArena(threshold, defRequired float64) (*VarArena, error) {
	threshold, err := resolveThreshold(threshold)
	if err != nil {
		return nil, err
	}
	a := g.arena()
	va := &VarArena{base: a, work: *a, th: threshold, st: a.newState()}
	va.work.edgeR = append([]float64(nil), a.edgeR...)
	va.work.edgeC = append([]float64(nil), a.edgeC...)
	va.work.nodeC = append([]float64(nil), a.nodeC...)
	va.nodeNet = make([]int32, len(a.parent))
	for i := 0; i < a.nets; i++ {
		for n := a.nodeOff[i]; n < a.nodeOff[i+1]; n++ {
			va.nodeNet[n] = int32(i)
		}
	}
	// Endpoints are classified by the same rule Graph.report applies.
	for i := 0; i < a.nets; i++ {
		for sl := a.outOff[i]; sl < a.outOff[i+1]; sl++ {
			name := a.outName[sl]
			req, ok := g.endpointRequired(i, name, defRequired)
			if !ok {
				continue
			}
			va.eps = append(va.eps, VarEndpoint{
				Net:      g.nodes[i].name,
				Output:   name,
				Required: req,
				Slot:     int(sl),
			})
		}
	}
	return va, nil
}

// Nets reports the number of nets (the required length of per-net factor
// slices).
func (va *VarArena) Nets() int { return va.base.nets }

// Threshold returns the switching threshold the view propagates at.
func (va *VarArena) Threshold() float64 { return va.th }

// Endpoints returns the design's timing endpoints. The slice is shared; do
// not mutate.
func (va *VarArena) Endpoints() []VarEndpoint { return va.eps }

// SetFactors rewrites the working value columns as base value × global scale
// × per-net factor: resistances get rScale·rNet[net], capacitances (edge and
// node) get cScale·cNet[net]. Nil per-net slices mean factor 1 everywhere;
// non-nil slices must have one entry per net, indexed by design net order.
func (va *VarArena) SetFactors(rScale, cScale float64, rNet, cNet []float64) error {
	if rNet != nil && len(rNet) != va.base.nets {
		return fmt.Errorf("timing: rNet has %d factors for %d nets", len(rNet), va.base.nets)
	}
	if cNet != nil && len(cNet) != va.base.nets {
		return fmt.Errorf("timing: cNet has %d factors for %d nets", len(cNet), va.base.nets)
	}
	for n := range va.nodeNet {
		rf, cf := rScale, cScale
		if rNet != nil {
			rf *= rNet[va.nodeNet[n]]
		}
		if cNet != nil {
			cf *= cNet[va.nodeNet[n]]
		}
		va.work.edgeR[n] = va.base.edgeR[n] * rf
		va.work.edgeC[n] = va.base.edgeC[n] * cf
		va.work.nodeC[n] = va.base.nodeC[n] * cf
	}
	return nil
}

// Propagate runs the full levelized sweep over the current working values on
// the caller's goroutine. Arrivals and slacks read afterwards reflect this
// propagation.
func (va *VarArena) Propagate(ctx context.Context) error {
	return va.work.propagateSeq(ctx, va.st, va.th, &va.scratch)
}

// Arrival returns the [min, max] arrival interval at an output slot after
// the last Propagate.
func (va *VarArena) Arrival(slot int) Interval {
	return Interval{va.st.arrMin[slot], va.st.arrMax[slot]}
}

// Slack returns the endpoint's slack after the last Propagate: required
// minus latest arrival (+Inf for unconstrained endpoints).
func (va *VarArena) Slack(ep VarEndpoint) float64 {
	return ep.Required - va.st.arrMax[ep.Slot]
}

// Clone returns an independent view sharing the immutable topology, base
// values, and endpoint table, with its own working columns (copied from the
// receiver's current factors) and propagation state. Use one clone per
// worker goroutine.
func (va *VarArena) Clone() *VarArena {
	c := &VarArena{
		base:    va.base,
		work:    va.work,
		nodeNet: va.nodeNet,
		th:      va.th,
		st:      va.base.newState(),
		eps:     va.eps,
	}
	c.work.edgeR = append([]float64(nil), va.work.edgeR...)
	c.work.edgeC = append([]float64(nil), va.work.edgeC...)
	c.work.nodeC = append([]float64(nil), va.work.nodeC...)
	return c
}
