package timing

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
		c := g.nodes[i].tree.Columns()
		base := int(a.nodeOff[i])
		copy(a.parent[base:], c.Parent)
		copy(a.kind[base:], c.Kind)
		copy(a.edgeR[base:], c.EdgeR)
		copy(a.edgeC[base:], c.EdgeC)
		copy(a.nodeC[base:], c.NodeC)
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

// gather hulls net i's fanin from the (already final) driver slots: the
// earliest and latest input arrival over its stage edges, and the local index
// of the first edge carrying the latest (-1 and [0, 0] at primary inputs).
// arrive is its one caller, so the full sweep and the variation view cannot
// drift apart in hull order or worst-fanin choice.
func (a *designArena) gather(st *arenaState, i int32) (inMin, inMax float64, worst int32) {
	f0, f1 := a.finOff[i], a.finOff[i+1]
	worst = -1
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
	return inMin, inMax, worst
}

// sweepNet writes net i's per-slot delay bounds from one sweep of its flat
// tree. Slots are written in slot order, and the first failing slot's error
// is returned, exactly as one TimesFlat call per slot would. A net's delays
// depend on its own tree only (eqs. 5–17), so sweeps of different nets run
// in any order. Allocation-free once s has grown to the widest net.
func (a *designArena) sweepNet(st *arenaState, th float64, i int32, s *rctree.Scratch) error {
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
		st.delayMin[sl], st.delayMax[sl] = b.TMin(th), b.TMax(th)
	}
	return nil
}

// sweepCursor hands levelized positions to sweep workers: positions at or
// past end are not swept, and end falls to the earliest failure seen.
type sweepCursor struct{ next, end atomic.Int32 }

// sweepFrom sweeps nets from c's positions until the cursor runs past its
// end, and returns the position and error of its failure, if any. A worker
// takes positions in increasing order, so its first failure is its earliest
// and it stops there; every position below the final end has been swept, so
// the failure at end is the earliest in levelized order, whatever the
// worker count.
func (a *designArena) sweepFrom(ctx context.Context, st *arenaState, th float64, c *sweepCursor, s *rctree.Scratch) (int32, error) {
	for {
		p := c.next.Add(1) - 1
		if p >= c.end.Load() {
			return 0, nil
		}
		err := ctx.Err()
		if err == nil {
			err = a.sweepNet(st, th, a.order[p], s)
		}
		if err != nil {
			for e := c.end.Load(); p < e; e = c.end.Load() {
				if c.end.CompareAndSwap(e, p) {
					break
				}
			}
			return p, err
		}
	}
}

// sweep runs every net's tree sweep, the first phase of a full propagation:
// one worker on the caller's goroutine, or up to workers goroutines taking
// nets in levelized order from one atomic cursor. Pass a reused scratch
// (one per worker) to keep steady-state runs allocation-lean; the sequential
// sweep then performs no allocation.
func (a *designArena) sweep(ctx context.Context, st *arenaState, th float64, workers int, scratch []rctree.Scratch) error {
	workers = max(1, min(workers, a.nets))
	if len(scratch) < workers {
		scratch = make([]rctree.Scratch, workers)
	}
	if workers == 1 {
		var c sweepCursor
		c.end.Store(int32(a.nets))
		_, err := a.sweepFrom(ctx, st, th, &c, &scratch[0])
		return err
	}
	c := new(sweepCursor)
	c.end.Store(int32(a.nets))
	type failure struct {
		p   int32
		err error
	}
	fails := make([]failure, workers)
	var wg sync.WaitGroup
	for w := range fails {
		wg.Add(1)
		go func(f *failure, s *rctree.Scratch) {
			defer wg.Done()
			f.p, f.err = a.sweepFrom(ctx, st, th, c, s)
		}(&fails[w], &scratch[w])
	}
	wg.Wait()
	end := c.end.Load()
	for _, f := range fails {
		if f.err != nil && f.p == end {
			return f.err
		}
	}
	return nil
}

// arrive is the DAG pass, the second phase of every propagation: in
// levelized order on the caller's goroutine, per net it hulls the fanin from
// the (already final) driver slots and writes each output's arrival as
// input + λ·delay, with λ = 1 when lambda is nil (x·1 is x, so that pass is
// bit-identical to adding the delays).
func (a *designArena) arrive(st *arenaState, dMin, dMax, lambda []float64) {
	for _, i := range a.order {
		inMin, inMax, worst := a.gather(st, i)
		st.inMin[i], st.inMax[i], st.worst[i] = inMin, inMax, worst
		l := 1.0
		if lambda != nil {
			l = lambda[i]
		}
		for sl := a.outOff[i]; sl < a.outOff[i+1]; sl++ {
			st.arrMin[sl] = inMin + dMin[sl]*l
			st.arrMax[sl] = inMax + dMax[sl]*l
		}
	}
}

// propagate runs one full propagation: the tree sweeps across workers, then
// the DAG pass over their delays. Results are bit-identical across worker
// counts, and so is the error: the earliest failing net's in levelized order.
func (a *designArena) propagate(ctx context.Context, st *arenaState, th float64, workers int, scratch []rctree.Scratch) error {
	if err := a.sweep(ctx, st, th, workers, scratch); err != nil {
		return err
	}
	a.arrive(st, st.delayMin, st.delayMax, nil)
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
