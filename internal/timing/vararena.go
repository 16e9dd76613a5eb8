package timing

import (
	"context"
	"fmt"
)

// VarArena is a variation view over a graph's flat arena. The paper's
// characteristic times TP, TD and TR are sums of R·C products and the bounds
// TMin/TMax (eqs. 13–17) are degree-1 homogeneous in them, so scaling every
// resistance of a net by r and every capacitance by c scales each of that
// net's output delay intervals by exactly r·c in real arithmetic (stage
// delays are gate-intrinsic and never scale). The view therefore sweeps the
// trees once, at construction, and keeps the nominal per-slot delays; a
// corner or Monte Carlo sample is then one SetFactors call (one λ per net)
// plus one Propagate, a DAG arrival pass over λ-scaled nominal delays with no
// tree sweep. It is the compute core of design-level Monte Carlo
// (internal/mcd).
//
// A VarArena is single-goroutine; parallel sweeps give each worker its own
// Clone, which shares the topology, nominal delays and endpoint table and
// allocates only its λ vector and propagation state.
type VarArena struct {
	a *designArena
	// nomMin/nomMax are the nominal per-slot delay bounds, shared read-only
	// by every clone.
	nomMin, nomMax []float64
	lambda         []float64 // per net: rScale·rNet[i] · cScale·cNet[i]
	th             float64
	st             *arenaState // Propagate writes only the arrival columns
	eps            []VarEndpoint
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
// explicit .require card unconstrained). It runs the view's one tree sweep,
// so a tree or bound error is returned here; the view starts at factors 1,
// already propagated. Per-net factor slices passed to
// SetFactors are indexed by the design's net order (d.Nets), which is also
// the graph's node order.
func (g *Graph) VarArena(threshold, defRequired float64) (*VarArena, error) {
	threshold, err := resolveThreshold(threshold)
	if err != nil {
		return nil, err
	}
	a := g.arena()
	// The one tree sweep: its state holds the nominal delays and, at λ = 1,
	// the nominal arrivals, so the view starts out propagated.
	st := a.newState()
	if err := a.propagate(context.TODO(), st, threshold, 1, nil); err != nil {
		return nil, err
	}
	va := &VarArena{a: a, nomMin: st.delayMin, nomMax: st.delayMax,
		lambda: make([]float64, a.nets), th: threshold, st: st}
	for i := range va.lambda {
		va.lambda[i] = 1
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
func (va *VarArena) Nets() int { return va.a.nets }

// Threshold returns the switching threshold the view propagates at.
func (va *VarArena) Threshold() float64 { return va.th }

// Endpoints returns the design's timing endpoints. The slice is shared; do
// not mutate.
func (va *VarArena) Endpoints() []VarEndpoint { return va.eps }

// SetFactors sets each net's delay scale λᵢ = (rScale·rNet[i])·(cScale·cNet[i]):
// the net's resistances scale by rScale·rNet[i] and its capacitances (edge
// and node) by cScale·cNet[i]. Nil per-net slices mean factor 1 everywhere;
// non-nil slices must have one entry per net, indexed by design net order.
func (va *VarArena) SetFactors(rScale, cScale float64, rNet, cNet []float64) error {
	if rNet != nil && len(rNet) != va.a.nets {
		return fmt.Errorf("timing: rNet has %d factors for %d nets", len(rNet), va.a.nets)
	}
	if cNet != nil && len(cNet) != va.a.nets {
		return fmt.Errorf("timing: cNet has %d factors for %d nets", len(cNet), va.a.nets)
	}
	for i := range va.lambda {
		rf, cf := rScale, cScale
		if rNet != nil {
			rf *= rNet[i]
		}
		if cNet != nil {
			cf *= cNet[i]
		}
		va.lambda[i] = rf * cf
	}
	return nil
}

// Propagate runs the full sweep's DAG pass on the caller's goroutine over
// λ-scaled nominal delays: per net it hulls the fanin and writes each
// output's arrival as input + λ·nominal delay. At λ = 1 the arrivals are
// bit-identical to Graph.Analyze's. Tree and bound errors surface from
// Graph.VarArena, not here. Arrivals and slacks read afterwards reflect this
// propagation.
func (va *VarArena) Propagate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	va.a.arrive(va.st, va.nomMin, va.nomMax, va.lambda)
	return nil
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

// Clone returns an independent view sharing the topology, nominal delays and
// endpoint table, with its own copy of the receiver's current factors and
// its own propagation state. Use one clone per worker goroutine.
func (va *VarArena) Clone() *VarArena {
	c := *va
	c.lambda = append([]float64(nil), va.lambda...)
	c.st = va.a.newState()
	return &c
}
