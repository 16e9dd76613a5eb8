package timing

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rctree"
)

// designArena is the flat SoA/CSR compute core of a timing graph: every
// net's RC tree flattened into one concatenated node arena, designated
// outputs assigned contiguous global slots, stage fanin/fanout encoded as CSR
// edge ranges with output-name lookups resolved to slot indices once at
// build, and the levelized net order computed once. All slices are immutable
// after newDesignArena; per-analysis state lives in arenaState, so one arena
// serves any number of concurrent propagations.
//
// Memory layout (immutable topology):
//
//	nodes   net 0 nodes | net 1 nodes | ...        nodeOff CSR per net
//	        parent/kind/edgeR/edgeC/nodeC          one flat slice per field,
//	                                               parent indices net-local
//	slots   net 0 outputs | net 1 outputs | ...    outOff CSR per net
//	        outLocal (node index), outName
//	fanin   finOff CSR per net; per edge the driver's global output slot and
//	        the stage delay
//	fanout  foutOff CSR per net; per edge the successor net index
//	order   levelized net order with levelOff per level
type designArena struct {
	nets int
	// concatenated node arena; net i's nodes are [nodeOff[i], nodeOff[i+1])
	nodeOff []int32
	parent  []int32 // net-local parent index, -1 at each net's root
	kind    []uint8
	edgeR   []float64
	edgeC   []float64
	nodeC   []float64
	// output slots
	outOff   []int32 // len nets+1
	outLocal []int32 // net-local node index per slot
	outName  []string
	// fanin CSR per net
	finOff   []int32
	finSlot  []int32 // global output slot of the driver the edge taps
	finDelay []float64
	// fanout CSR per net (successor nets, one entry per stage edge)
	foutOff []int32
	foutTo  []int32
	// levelized order: order[levelOff[l]:levelOff[l+1]] is level l
	levelOff []int32
	order    []int32
	netName  []string // error reporting
}

// arenaState is the mutable working state of one propagation over a
// designArena: flat per-slot delay and arrival intervals plus per-net input
// intervals and worst-fanin indices. Allocate once with newState and reuse;
// propagation rewrites every element, so no reset pass is needed.
type arenaState struct {
	delayMin, delayMax []float64 // per slot
	arrMin, arrMax     []float64 // per slot
	inMin, inMax       []float64 // per net
	worst              []int32   // per net: local fanin edge index, -1 at PIs
}

// newDesignArena flattens a resolved graph. Output-name lookups happen here,
// once, so the propagation hot path is pure index arithmetic. Every lookup
// succeeds: NewGraph has already refused stages that tap a name the driver
// does not designate.
func newDesignArena(g *Graph) *designArena {
	nets := len(g.nodes)
	a := &designArena{
		nets:    nets,
		nodeOff: make([]int32, nets+1),
		outOff:  make([]int32, nets+1),
		netName: make([]string, nets),
	}
	// Node arena.
	total := 0
	for i := range g.nodes {
		a.nodeOff[i] = int32(total)
		total += g.nodes[i].tree.NumNodes()
		a.netName[i] = g.nodes[i].name
	}
	a.nodeOff[nets] = int32(total)
	a.parent = make([]int32, total)
	a.kind = make([]uint8, total)
	a.edgeR = make([]float64, total)
	a.edgeC = make([]float64, total)
	a.nodeC = make([]float64, total)
	for i := range g.nodes {
		t := g.nodes[i].tree
		base := int(a.nodeOff[i])
		for j := 0; j < t.NumNodes(); j++ {
			id := rctree.NodeID(j)
			kind, r, c := t.Edge(id)
			a.parent[base+j] = int32(t.Parent(id))
			a.kind[base+j] = uint8(kind)
			a.edgeR[base+j] = r
			a.edgeC[base+j] = c
			a.nodeC[base+j] = t.NodeCap(id)
		}
	}
	// Output slots, in designation order, plus a per-net name→slot index for
	// fanin resolution.
	slotOf := make([]map[string]int32, nets)
	for i := range g.nodes {
		a.outOff[i] = int32(len(a.outLocal))
		t := g.nodes[i].tree
		slotOf[i] = make(map[string]int32, len(t.Outputs()))
		for _, o := range t.Outputs() {
			slotOf[i][t.Name(o)] = int32(len(a.outLocal))
			a.outLocal = append(a.outLocal, int32(o))
			a.outName = append(a.outName, t.Name(o))
		}
	}
	a.outOff[nets] = int32(len(a.outLocal))
	// Fanin and fanout CSR, preserving the graph's edge order so the worst
	// fanin index and the hull accumulation order match Graph.gatherInput.
	a.finOff = make([]int32, nets+1)
	a.foutOff = make([]int32, nets+1)
	for i := range g.nodes {
		a.finOff[i] = int32(len(a.finSlot))
		for _, e := range g.nodes[i].fanin {
			a.finSlot = append(a.finSlot, slotOf[e.driver][e.output])
			a.finDelay = append(a.finDelay, e.delay)
		}
	}
	a.finOff[nets] = int32(len(a.finSlot))
	for i := range g.nodes {
		a.foutOff[i] = int32(len(a.foutTo))
		for _, e := range g.nodes[i].fanout {
			a.foutTo = append(a.foutTo, int32(e.to))
		}
	}
	a.foutOff[nets] = int32(len(a.foutTo))
	// Levelized order.
	a.levelOff = make([]int32, len(g.levels)+1)
	a.order = make([]int32, 0, nets)
	for l, level := range g.levels {
		a.levelOff[l] = int32(len(a.order))
		for _, i := range level {
			a.order = append(a.order, int32(i))
		}
	}
	a.levelOff[len(g.levels)] = int32(len(a.order))
	return a
}

// newState allocates a fresh (uninitialized) propagation state sized for a.
func (a *designArena) newState() *arenaState {
	slots := len(a.outLocal)
	return &arenaState{
		delayMin: make([]float64, slots),
		delayMax: make([]float64, slots),
		arrMin:   make([]float64, slots),
		arrMax:   make([]float64, slots),
		inMin:    make([]float64, a.nets),
		inMax:    make([]float64, a.nets),
		worst:    make([]int32, a.nets),
	}
}

// computeNet fully times net i: gather the input interval from the (already
// final) driver slots, recompute every output slot's delay interval from one
// sweep of the flat tree, and write the output arrivals. Slots are written
// in slot order, and the first failing slot's error is returned, exactly as
// one TimesFlat call per slot would. Allocation-free once s has grown to
// the widest net.
func (a *designArena) computeNet(st *arenaState, th float64, i int32, s *rctree.Scratch) error {
	f0, f1 := a.finOff[i], a.finOff[i+1]
	var inMin, inMax float64
	worst := int32(-1)
	for e := f0; e < f1; e++ {
		slot := a.finSlot[e]
		cMin := st.arrMin[slot] + a.finDelay[e]
		cMax := st.arrMax[slot] + a.finDelay[e]
		if e == f0 {
			inMin, inMax, worst = cMin, cMax, 0
			continue
		}
		if cMax > inMax {
			worst = e - f0
			inMax = cMax
		}
		if cMin < inMin {
			inMin = cMin
		}
	}
	st.inMin[i], st.inMax[i], st.worst[i] = inMin, inMax, worst
	base, end := a.nodeOff[i], a.nodeOff[i+1]
	s0, s1 := a.outOff[i], a.outOff[i+1]
	outs := a.outLocal[s0:s1]
	tms := s.Times(len(outs))
	done, terr := rctree.TimesFlatAll(a.parent[base:end], a.kind[base:end],
		a.edgeR[base:end], a.edgeC[base:end], a.nodeC[base:end], outs, tms, s)
	for j, tm := range tms {
		sl := s0 + int32(j)
		if j == done {
			return fmt.Errorf("timing: net %q output %q: %w", a.netName[i], a.outName[sl], terr)
		}
		b, err := core.Eval(tm)
		if err != nil {
			return fmt.Errorf("timing: net %q output %q: %w", a.netName[i], a.outName[sl], err)
		}
		dMin, dMax := b.TMin(th), b.TMax(th)
		st.delayMin[sl], st.delayMax[sl] = dMin, dMax
		st.arrMin[sl], st.arrMax[sl] = inMin+dMin, inMax+dMax
	}
	return nil
}

// propagateSeq runs the full levelized sweep on the caller's goroutine. With
// a pre-grown scratch the steady-state pass performs zero allocations — the
// alloc-assertion test pins this down.
func (a *designArena) propagateSeq(ctx context.Context, st *arenaState, th float64, s *rctree.Scratch) error {
	for l := 0; l+1 < len(a.levelOff); l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, i := range a.order[a.levelOff[l]:a.levelOff[l+1]] {
			if err := a.computeNet(st, th, i, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// netTimings cuts the flat state into the per-net form the report assembly
// and Session machinery consume: one delay and one arrival array over all
// slots, and per net a window into each (names is a window into the
// immutable outName). This runs once per analysis, off the propagation hot
// path, and allocates three slices whatever the design's size.
func (a *designArena) netTimings(st *arenaState) []netTiming {
	slots := len(a.outLocal)
	delay := make([]Interval, slots)
	out := make([]Interval, slots)
	for sl := range delay {
		delay[sl] = Interval{st.delayMin[sl], st.delayMax[sl]}
		out[sl] = Interval{st.arrMin[sl], st.arrMax[sl]}
	}
	state := make([]netTiming, a.nets)
	for i := range state {
		s0, s1 := a.outOff[i], a.outOff[i+1]
		state[i] = netTiming{
			input: Interval{st.inMin[i], st.inMax[i]},
			names: a.outName[s0:s1:s1],
			delay: delay[s0:s1:s1],
			out:   out[s0:s1:s1],
			worst: int(st.worst[i]),
		}
	}
	return state
}
