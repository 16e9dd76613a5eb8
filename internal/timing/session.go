package timing

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rctree"
	"repro/internal/trace"
)

// Edit is one ECO operation on a design session, addressed by net name plus
// (for node-level ops) a node name within that net. The op vocabulary is the
// EditTree's: setR, setC, addC, setLine, scaleDriver, grow, prune, addOutput,
// removeOutput. Numeric values ride in R/C/Factor pointers so "absent" and
// "zero" stay distinguishable on the JSON wire.
type Edit struct {
	Op     string   `json:"op"`
	Net    string   `json:"net"`
	Node   string   `json:"node,omitempty"`
	Parent string   `json:"parent,omitempty"`
	Name   string   `json:"name,omitempty"`
	Kind   string   `json:"kind,omitempty"` // "resistor" (default) or "line"
	R      *float64 `json:"r,omitempty"`
	C      *float64 `json:"c,omitempty"`
	Factor *float64 `json:"factor,omitempty"`
}

// ApplyResult summarizes one Session.Apply: how much of the design the
// dirty-cone sweep actually touched, and the headline numbers afterwards.
type ApplyResult struct {
	// Gen is the session generation after the edits (bumped once per Apply
	// that changed anything).
	Gen uint64 `json:"gen"`
	// Applied counts the edits applied (all of them unless an error stopped
	// the batch early; the applied prefix stays in effect).
	Applied int `json:"applied"`
	// DirtyNets counts nets whose timing state changed (edited nets plus the
	// downstream cone that actually moved).
	DirtyNets int `json:"dirtyNets"`
	// VisitedNets counts nets the sweep examined; VisitedNets - DirtyNets is
	// how many fanout nets early-exited with unchanged arrivals.
	VisitedNets int `json:"visitedNets"`
	// WNS and TNS are the updated worst/total negative slack (WNS is +Inf
	// with no constrained endpoint; the JSON form omits it then).
	WNS float64 `json:"-"`
	TNS float64 `json:"tns"`
	// InvalidatedPaths lists the endpoints of previously reported critical
	// paths that traverse a dirty net — their hop-by-hop story is stale and
	// the next Report backtracks them afresh.
	InvalidatedPaths []string `json:"invalidatedPaths,omitempty"`
}

// MarshalJSON renders WNS as an omitted field when +Inf (no constrained
// endpoint), following the report wire conventions.
func (r ApplyResult) MarshalJSON() ([]byte, error) {
	type plain ApplyResult // shed the method, keep the tags
	return json.Marshal(struct {
		plain
		WNS *float64 `json:"wns,omitempty"`
	}{plain(r), finitePtr(r.WNS)})
}

// Session is the incremental re-timing engine over one design: a Graph plus
// one mutable EditTree per net. Apply absorbs ECO edits in O(depth) per
// edited net and re-propagates interval arrivals only through the downstream
// fanout cone, with early exit where arrivals settle — against the full
// levelized sweep AnalyzeDesign pays (BenchmarkDesignECO measures the gap).
//
// A Session is not safe for concurrent use; wrap it in a mutex (as
// cmd/rcserve does) to share one across request handlers.
type Session struct {
	g        *Graph
	th       float64
	k        int
	required float64
	trees    []*incr.EditTree
	// protected[i] names net i's outputs that stage edges tap or .require
	// cards pin; pruning or undesignating them would orphan the graph
	// structure, so those edits are rejected.
	protected []map[string]bool
	state     []netTiming
	// netMin/netNeg are per-net endpoint-slack aggregates (worst slack and
	// summed negative slack), refreshed only for dirty nets. WNS/TNS after an
	// Apply cost one O(nets) fold over them, and WorstEndpoints expands only
	// the nets whose worst slack can rank.
	netMin []float64
	netNeg []float64
	// owned is the per-net dirty-range/ownership byte: ownTreeBit marks
	// trees[i] as exclusively this session's, ownStateBit the same for
	// state[i]'s arrival slice. Fork zeroes the byte on both sides; applyOne
	// clones a shared tree and refreshOut a shared slice before their first
	// mutation — copy-on-write, so a fork costs O(nets) flag-and-struct
	// copies instead of O(design) data.
	owned  []uint8
	gen    uint64
	report *Report // memoized; nil after any state change
	// scratch for the dirty-cone sweep, allocated lazily on the first Apply
	// so read-only forks (closure trials that get discarded early) stay
	// cheaper to create. moved[j] marks the current net's output positions
	// whose arrival the sweep just changed.
	queued  []bool
	buckets [][]int
	moved   []bool
	// obs receives per-Apply telemetry (dirty/visited cone sizes, apply
	// spans); nil disables it. Forks inherit it.
	obs *obs.Registry
}

// Ownership bits of Session.owned.
const (
	ownTreeBit uint8 = 1 << iota
	ownStateBit
)

// NewSession builds the graph, mounts one EditTree per net, and runs the
// initial full analysis (work-stealing across GOMAXPROCS workers unless
// opt.Sequential). Options are fixed for the session's lifetime.
func NewSession(ctx context.Context, d *netlist.Design, opt Options) (*Session, error) {
	_, op := trace.StartOp(ctx, opt.Obs, "timing_levelize")
	g, err := NewGraph(d)
	op.SetError(err)
	op.End()
	if err != nil {
		return nil, err
	}
	return g.Session(ctx, opt)
}

// Session mounts an incremental re-timing session on an existing graph. The
// initial full analysis runs on the graph's flat arena; the session's own
// ECO machinery then re-times dirty cones incrementally.
func (g *Graph) Session(ctx context.Context, opt Options) (*Session, error) {
	r, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	state, err := g.computeState(ctx, r)
	if err != nil {
		return nil, err
	}
	s := &Session{
		g:         g,
		th:        r.th,
		k:         r.k,
		required:  opt.Required,
		trees:     make([]*incr.EditTree, len(g.nodes)),
		protected: make([]map[string]bool, len(g.nodes)),
		state:     state,
		netMin:    make([]float64, len(g.nodes)),
		netNeg:    make([]float64, len(g.nodes)),
		owned:     make([]uint8, len(g.nodes)),
		obs:       r.obs,
	}
	for i := range g.nodes {
		node := &g.nodes[i]
		s.trees[i] = incr.New(node.tree)
		s.owned[i] = ownTreeBit | ownStateBit
		s.protected[i] = make(map[string]bool, len(node.drives)+len(node.required))
		for name := range node.drives {
			s.protected[i][name] = true
		}
		for name := range node.required {
			s.protected[i][name] = true
		}
		s.refreshSummary(i)
	}
	return s, nil
}

// Fork returns an independent what-if copy of the session in O(nets): the
// per-net timing state is deep-copied, while the EditTrees — the bulk of a
// session's memory — are shared copy-on-write, cloned only when one side
// first edits that net. Edits to a fork never show through to the parent and
// vice versa, so a fork is the natural trial vehicle: fork, Apply a candidate
// ECO, read the resulting WNS/TNS, discard.
//
// Forks of the same parent may Apply concurrently with each other (each on
// its own goroutine): an Apply mutates only the fork's own state and its
// privately cloned trees, and merely reads trees still shared. Each
// individual Session, parent included, remains single-writer as always, and
// Fork itself must not race an Apply on the same session.
func (s *Session) Fork() *Session {
	f := &Session{
		g:         s.g,
		th:        s.th,
		k:         s.k,
		required:  s.required,
		trees:     append([]*incr.EditTree(nil), s.trees...),
		protected: s.protected, // immutable after NewSession
		state:     append([]netTiming(nil), s.state...),
		netMin:    append([]float64(nil), s.netMin...),
		netNeg:    append([]float64(nil), s.netNeg...),
		owned:     make([]uint8, len(s.trees)),
		gen:       s.gen,
		report:    s.report, // reports are immutable once built
		obs:       s.obs,    // registries are goroutine-safe; forks share one
	}
	// The copied netTiming structs still point at the parent's name, delay
	// and arrival slices. Names and delays are only ever replaced wholesale,
	// so sharing them is safe forever; arrival slices are cloned by
	// refreshOut before their first in-place write. The parent's trees and
	// slices are shared now too: its next mutation must also clone first, or
	// it would touch data a live fork reads. Zeroing the ownership bytes on
	// both sides is the whole dirty-range reset — the underlying arrays stay
	// put.
	for i := range s.owned {
		s.owned[i] = 0
	}
	return f
}

// ownOut returns net i's arrival slice for in-place mutation, cloning it
// first if it is still shared with a fork (or a fork's parent).
func (s *Session) ownOut(i int) []Interval {
	st := &s.state[i]
	if s.owned[i]&ownStateBit == 0 {
		st.out = slices.Clone(st.out)
		s.owned[i] |= ownStateBit
	}
	return st.out
}

// ownTree returns net i's EditTree for mutation, cloning it first if it is
// still shared with a fork (or a fork's parent).
func (s *Session) ownTree(i int) *incr.EditTree {
	if s.owned[i]&ownTreeBit == 0 {
		s.trees[i] = s.trees[i].Clone()
		s.owned[i] |= ownTreeBit
	}
	return s.trees[i]
}

// Gen returns the session generation; it bumps once per Apply that changed
// any timing state, so equal generations imply identical reports.
func (s *Session) Gen() uint64 { return s.gen }

// Threshold returns the session's switching threshold.
func (s *Session) Threshold() float64 { return s.th }

// Required returns the session's default required arrival time (<= 0 means
// endpoints without an explicit .require card are unconstrained). Corner
// analyses mounting scaled shadow sessions use it to reproduce the session's
// constraint defaults.
func (s *Session) Required() float64 { return s.required }

// DesignName returns the name of the session's design.
func (s *Session) DesignName() string { return s.g.design.Name }

// Nets reports the number of nets in the session's design.
func (s *Session) Nets() int { return len(s.g.nodes) }

// netIndex resolves a net name.
func (s *Session) netIndex(net string) (int, error) {
	if net == "" {
		return 0, fmt.Errorf("timing: edit names no net")
	}
	i, ok := s.g.index[net]
	if !ok {
		return 0, fmt.Errorf("timing: unknown net %q", net)
	}
	return i, nil
}

// NetDelay returns the current [TMin, TMax] delay interval of one net output.
func (s *Session) NetDelay(net, output string) (Interval, bool) {
	st, j := s.outputAt(net, output)
	if j < 0 {
		return Interval{}, false
	}
	return st.delay[j], true
}

// Arrival returns the current arrival interval at one net output.
func (s *Session) Arrival(net, output string) (Interval, bool) {
	st, j := s.outputAt(net, output)
	if j < 0 {
		return Interval{}, false
	}
	return st.out[j], true
}

// outputAt resolves a net output to its net's working state and the
// output's position in it (-1 when the net or the output is unknown).
func (s *Session) outputAt(net, output string) (*netTiming, int) {
	i, err := s.netIndex(net)
	if err != nil {
		return nil, -1
	}
	return &s.state[i], s.state[i].output(output)
}

// InputArrival returns the current arrival interval at the net's driven
// input ([0, 0] for a primary-input net).
func (s *Session) InputArrival(net string) (Interval, bool) {
	i, err := s.netIndex(net)
	if err != nil {
		return Interval{}, false
	}
	return s.state[i].input, true
}

// CriticalUpstream returns the names of the nets along the worst-arrival
// fanin chain ending at net — net itself first, walking each net's critical
// fanin edge back to a primary input. This is the cone a repair engine mines
// for candidate moves: any net on it contributes to the endpoint's latest
// arrival.
func (s *Session) CriticalUpstream(net string) []string {
	i, err := s.netIndex(net)
	if err != nil {
		return nil
	}
	var cone []string
	for {
		cone = append(cone, s.g.nodes[i].name)
		w := s.state[i].worst
		if w < 0 {
			return cone
		}
		i = s.g.nodes[i].fanin[w].driver
	}
}

// CloneNetTree returns an independent clone of one net's current EditTree —
// a safe probe vehicle for move generators that want to bisect a parameter
// without touching the session (opt.MaxParam over a cloned tree is the
// intended pairing).
func (s *Session) CloneNetTree(net string) (*incr.EditTree, bool) {
	i, err := s.netIndex(net)
	if err != nil {
		return nil, false
	}
	return s.trees[i].Clone(), true
}

// ViewNetTree returns one net's live EditTree for topology inspection
// (Lookup, Parent, Children, Edge, NodeCap, SubtreeCap, Outputs) without
// the O(n) clone CloneNetTree pays. The view is strictly read-only: callers
// must not invoke mutating methods — nor Times, which fills a memo — and
// must not hold the view across an Apply, which may swap the tree out under
// copy-on-write. Probing edits belongs on a CloneNetTree copy.
func (s *Session) ViewNetTree(net string) (*incr.EditTree, bool) {
	i, err := s.netIndex(net)
	if err != nil {
		return nil, false
	}
	return s.trees[i], true
}

// ProtectedOutputs lists net's outputs that stage edges tap or .require
// cards pin — the ones structural guards will refuse to prune or
// undesignate — in sorted order.
func (s *Session) ProtectedOutputs(net string) []string {
	i, err := s.netIndex(net)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(s.protected[i]))
	for name := range s.protected[i] {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Apply performs the edits in order and re-times the affected cone. On the
// first failing edit it stops and returns the error; the already-applied
// prefix stays in effect and the propagated state remains consistent, so a
// caller can inspect the partial result and keep going.
func (s *Session) Apply(edits []Edit) (ApplyResult, error) {
	return s.ApplyCtx(context.Background(), edits)
}

// ApplyCtx is Apply with trace propagation: when ctx carries an active trace
// span, the apply (and its dirty-cone re-propagation) attach child spans
// under it alongside the duration histograms both forms always record.
func (s *Session) ApplyCtx(ctx context.Context, edits []Edit) (ApplyResult, error) {
	ctx, op := trace.StartOp(ctx, s.obs, "timing_eco_apply")
	var res ApplyResult
	edited := map[int]bool{}
	var firstErr error
	for idx, e := range edits {
		i, err := s.applyOne(e)
		if err != nil {
			firstErr = fmt.Errorf("timing: edit %d (%s): %w", idx, e.Op, err)
			break
		}
		edited[i] = true
		res.Applied++
	}
	if len(edited) > 0 {
		// The dirty-cone sweep's duration is part of the eco-apply histogram;
		// the trace view gets its own child span so a request tree shows the
		// propagate phase distinctly.
		_, psp := trace.StartSpan(ctx, "timing_propagate")
		if err := s.propagate(edited, &res); err != nil && firstErr == nil {
			firstErr = err
		}
		psp.SetAttr("dirty_nets", fmt.Sprint(res.DirtyNets))
		psp.End()
		s.gen++
	}
	res.Gen = s.gen
	res.WNS, res.TNS = s.Summary()
	op.SetError(firstErr)
	op.End()
	if s.obs != nil {
		s.obs.Counter("timing_eco_edits_applied_total").Add(int64(res.Applied))
		s.obs.Histogram("timing_eco_dirty_nets", obs.SizeBuckets).Observe(float64(res.DirtyNets))
		s.obs.Histogram("timing_eco_visited_nets", obs.SizeBuckets).Observe(float64(res.VisitedNets))
	}
	return res, firstErr
}

// applyOne dispatches one edit onto its net's EditTree and returns the net
// index. Structural guards keep the graph sound: outputs that stage edges
// tap or requires pin cannot be pruned away or undesignated.
func (s *Session) applyOne(e Edit) (int, error) {
	i, err := s.netIndex(e.Net)
	if err != nil {
		return 0, err
	}
	et := s.ownTree(i)
	resolve := func(name string) (incr.NodeID, error) {
		if name == "" {
			return 0, fmt.Errorf("missing node name")
		}
		id, ok := et.Lookup(name)
		if !ok {
			return 0, fmt.Errorf("unknown node %q in net %q", name, e.Net)
		}
		return id, nil
	}
	num := func(what string, p *float64) (float64, error) {
		if p == nil {
			return 0, fmt.Errorf("missing %q", what)
		}
		return *p, nil
	}
	// A net whose total capacitance hits zero has undefined characteristic
	// times (the full analyzer rejects such a tree outright), so edits that
	// would drain the last capacitance are refused up front.
	drained := func(newTotal float64) error {
		if newTotal <= 0 {
			return fmt.Errorf("edit would leave net %q with no capacitance", e.Net)
		}
		return nil
	}
	switch e.Op {
	case "setR":
		id, err := resolve(e.Node)
		if err != nil {
			return 0, err
		}
		r, err := num("r", e.R)
		if err != nil {
			return 0, err
		}
		return i, et.SetResistance(id, r)
	case "setC":
		id, err := resolve(e.Node)
		if err != nil {
			return 0, err
		}
		c, err := num("c", e.C)
		if err != nil {
			return 0, err
		}
		if err := drained(et.TotalCap() - et.NodeCap(id) + c); err != nil {
			return 0, err
		}
		return i, et.SetCapacitance(id, c)
	case "addC":
		id, err := resolve(e.Node)
		if err != nil {
			return 0, err
		}
		c, err := num("c", e.C)
		if err != nil {
			return 0, err
		}
		if err := drained(et.TotalCap() + c); err != nil {
			return 0, err
		}
		return i, et.AddCapacitance(id, c)
	case "setLine":
		id, err := resolve(e.Node)
		if err != nil {
			return 0, err
		}
		r, err := num("r", e.R)
		if err != nil {
			return 0, err
		}
		c, err := num("c", e.C)
		if err != nil {
			return 0, err
		}
		_, _, oldC := et.Edge(id)
		if err := drained(et.TotalCap() - oldC + c); err != nil {
			return 0, err
		}
		return i, et.SetLine(id, r, c)
	case "scaleDriver":
		f, err := num("factor", e.Factor)
		if err != nil {
			return 0, err
		}
		return i, et.ScaleDriver(f)
	case "grow":
		parent, err := resolve(e.Parent)
		if err != nil {
			return 0, fmt.Errorf("parent: %w", err)
		}
		r, err := num("r", e.R)
		if err != nil {
			return 0, err
		}
		var c float64
		if e.C != nil {
			c = *e.C
		}
		kind, err := edgeKindOf(e.Kind, c)
		if err != nil {
			return 0, err
		}
		_, err = et.Grow(parent, e.Name, kind, r, c)
		return i, err
	case "prune":
		id, err := resolve(e.Node)
		if err != nil {
			return 0, err
		}
		if name, bad := s.pruneWouldOrphan(i, id); bad {
			return 0, fmt.Errorf("cannot prune %q: output %q is tapped by a stage or pinned by a require", e.Node, name)
		}
		if s.outputsUnder(i, id) == len(et.Outputs()) {
			return 0, fmt.Errorf("cannot prune %q: net %q would be left without designated outputs", e.Node, e.Net)
		}
		if err := drained(et.TotalCap() - et.SubtreeCap(id)); err != nil {
			return 0, err
		}
		return i, et.Prune(id)
	case "addOutput":
		id, err := resolve(e.Node)
		if err != nil {
			return 0, err
		}
		return i, et.AddOutput(id)
	case "removeOutput":
		id, err := resolve(e.Node)
		if err != nil {
			return 0, err
		}
		if s.protected[i][e.Node] {
			return 0, fmt.Errorf("output %q is tapped by a stage or pinned by a require", e.Node)
		}
		if len(et.Outputs()) == 1 {
			return 0, fmt.Errorf("cannot remove %q: net %q would be left without designated outputs", e.Node, e.Net)
		}
		if !et.RemoveOutput(id) {
			return 0, fmt.Errorf("node %q is not an output", e.Node)
		}
		return i, nil
	}
	return 0, fmt.Errorf("unknown op %q", e.Op)
}

// edgeKindOf maps the wire-form kind string onto rctree's enum, defaulting
// to "a line when C > 0, a resistor otherwise" as the session endpoints do.
func edgeKindOf(kind string, c float64) (rctree.EdgeKind, error) {
	switch kind {
	case "", "resistor":
		if kind == "" && c > 0 {
			return rctree.EdgeLine, nil
		}
		return rctree.EdgeResistor, nil
	case "line":
		return rctree.EdgeLine, nil
	}
	return 0, fmt.Errorf("unknown edge kind %q (want resistor or line)", kind)
}

// pruneWouldOrphan reports whether pruning node q of net i would drop a
// protected output (q itself or any output in its subtree), by walking each
// protected output's root path — O(protected · depth), no child lists needed.
func (s *Session) pruneWouldOrphan(i int, q incr.NodeID) (string, bool) {
	et := s.trees[i]
	for name := range s.protected[i] {
		id, ok := et.Lookup(name)
		if !ok {
			continue
		}
		for x := id; ; {
			if x == q {
				return name, true
			}
			if x == incr.Root {
				break
			}
			x = et.Parent(x)
		}
	}
	return "", false
}

// outputsUnder counts net i's designated outputs lying at or below node q.
// A prune that would sweep away every designated output is rejected, because
// an output-less tree re-promotes all leaves on Materialize and the session
// would silently diverge from a full re-analysis.
func (s *Session) outputsUnder(i int, q incr.NodeID) int {
	et := s.trees[i]
	count := 0
	for _, o := range et.Outputs() {
		for x := o; ; {
			if x == q {
				count++
				break
			}
			if x == incr.Root {
				break
			}
			x = et.Parent(x)
		}
	}
	return count
}

// recomputeDelay derives net i's designated output names and delay
// intervals from its EditTree: one O(depth) characteristic-times query plus
// a bound evaluation per output.
func (s *Session) recomputeDelay(i int) ([]string, []Interval, error) {
	et := s.trees[i]
	outs := et.Outputs()
	names := make([]string, len(outs))
	delay := make([]Interval, len(outs))
	for j, o := range outs {
		names[j] = et.Name(o)
		tm, err := et.Times(o)
		if err != nil {
			return nil, nil, fmt.Errorf("timing: net %q output %q: %w", s.g.nodes[i].name, names[j], err)
		}
		b, err := core.New(tm)
		if err != nil {
			return nil, nil, fmt.Errorf("timing: net %q output %q: %w", s.g.nodes[i].name, names[j], err)
		}
		delay[j] = Interval{b.TMin(s.th), b.TMax(s.th)}
	}
	return names, delay, nil
}

// propagate re-times the dirty cone: the edited nets re-derive their output
// delays from their EditTrees, then arrivals sweep level by level through
// the downstream fanout, early-exiting any net whose input interval (and
// delay) came back unchanged. Only fanouts tapping an output whose arrival
// actually moved are enqueued, so a mid-cone settle stops the wave.
func (s *Session) propagate(edited map[int]bool, res *ApplyResult) error {
	var firstErr error
	if s.queued == nil {
		s.queued = make([]bool, len(s.g.nodes))
		s.buckets = make([][]int, len(s.g.levels))
	}
	dirty := make(map[int]bool, len(edited))
	push := func(i int) {
		if !s.queued[i] {
			s.queued[i] = true
			l := s.g.nodes[i].level
			s.buckets[l] = append(s.buckets[l], i)
		}
	}
	for i := range edited {
		push(i)
	}
	for l := range s.buckets {
		// Deterministic sweep order (pushes land only in deeper levels).
		sort.Ints(s.buckets[l])
		for _, i := range s.buckets[l] {
			s.queued[i] = false
			res.VisitedNets++
			st := &s.state[i]
			in, worst := s.g.gatherInput(s.state, i)
			delayDirty := edited[i]
			if !delayDirty && in == st.input {
				st.worst = worst // the critical fanin may flip without moving the hull
				continue
			}
			st.input, st.worst = in, worst
			var moved bool
			if delayDirty {
				names, delay, err := s.recomputeDelay(i)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				s.rebuildOut(i, names, delay)
			} else {
				moved = s.refreshOut(i)
			}
			if moved || delayDirty {
				dirty[i] = true
				s.refreshSummary(i)
			}
			for _, fe := range s.g.nodes[i].fanout {
				if j := st.output(fe.output); j >= 0 && s.moved[j] {
					push(fe.to)
				}
			}
		}
		s.buckets[l] = s.buckets[l][:0]
	}
	res.DirtyNets = len(dirty)
	if s.report != nil {
		for _, p := range s.report.Paths {
			for _, h := range p.Hops {
				if i, ok := s.g.index[h.Net]; ok && dirty[i] {
					res.InvalidatedPaths = append(res.InvalidatedPaths, p.Endpoint)
					break
				}
			}
		}
	}
	s.report = nil
	return firstErr
}

// rebuildOut installs an edited net's freshly derived names and delays and
// rebuilds its arrivals from them, so grown or pruned outputs appear and
// vanish. An output is marked moved in s.moved when its arrival differs
// from before or it is new; a pruned output needs no mark, since it cannot
// be stage-tapped (tapped outputs are protected).
func (s *Session) rebuildOut(i int, names []string, delay []Interval) {
	st := &s.state[i]
	out := make([]Interval, len(delay))
	s.moved = slices.Grow(s.moved[:0], len(delay))[:len(delay)]
	for j, d := range delay {
		out[j] = st.input.plus(d)
		k := st.output(names[j])
		s.moved[j] = k < 0 || st.out[k] != out[j]
	}
	st.names, st.delay, st.out = names, delay, out
	s.owned[i] |= ownStateBit // freshly built, private by construction
}

// refreshOut recomputes net i's output arrivals in place from the current
// input and delays, marks in s.moved the outputs whose arrival moved, and
// reports whether any did.
func (s *Session) refreshOut(i int) bool {
	st := &s.state[i]
	s.moved = slices.Grow(s.moved[:0], len(st.delay))[:len(st.delay)]
	moved := false
	for j, d := range st.delay {
		nv := st.input.plus(d)
		s.moved[j] = st.out[j] != nv
		if s.moved[j] {
			s.ownOut(i)[j] = nv
			moved = true
		}
	}
	return moved
}

// refreshSummary recomputes net i's endpoint-slack aggregates from its
// current outputs: the worst slack and the negative slack summed in
// designation order, over constrained endpoints only.
func (s *Session) refreshSummary(i int) {
	minS, neg := math.Inf(1), 0.0
	st := &s.state[i]
	for j, name := range st.names {
		req, ok := s.g.endpointRequired(i, name, s.required)
		if !ok || math.IsInf(req, 1) {
			continue
		}
		slack := req - st.out[j].Max
		if slack < minS {
			minS = slack
		}
		if slack < 0 {
			neg += slack
		}
	}
	s.netMin[i], s.netNeg[i] = minS, neg
}

// Summary returns the current WNS (+Inf with no constrained endpoint) and
// TNS, folded from the per-net aggregates in O(nets) — the numbers an
// ApplyResult carries, and bit for bit the WNS/TNS of Report.
func (s *Session) Summary() (wns, tns float64) {
	wns = math.Inf(1)
	for i := range s.netMin {
		if s.netMin[i] < wns {
			wns = s.netMin[i]
		}
		tns += s.netNeg[i]
	}
	return wns, tns
}

// Report returns the full chip report for the current state — endpoint table
// sorted worst-first, WNS/TNS, and freshly backtracked critical paths. The
// report is memoized until the next state-changing Apply; treat it as
// immutable. Consumers that only rank the worst endpoints read
// WorstEndpoints and Summary instead.
func (s *Session) Report() *Report {
	if s.report == nil {
		s.report = s.g.report(s.state, s.th, s.k, s.required)
	}
	return s.report
}

// WorstEndpoints returns the k worst constrained endpoints of the current
// state in Report order: the constrained prefix of Report().Endpoints, cut
// to k, without assembling the report. Only nets whose worst slack is at
// most the k-th smallest per-net worst are expanded — any other net's
// endpoints are strictly slacker than k endpoints already found, so they
// cannot rank — and only their endpoints are sorted.
func (s *Session) WorstEndpoints(k int) []EndpointSlack {
	if k <= 0 {
		return nil
	}
	var mins []float64
	for _, m := range s.netMin {
		if !math.IsInf(m, 1) {
			mins = append(mins, m)
		}
	}
	cut := math.Inf(1)
	if len(mins) > k {
		slices.Sort(mins)
		cut = mins[k-1]
	}
	var eps []EndpointSlack
	for i, m := range s.netMin {
		if math.IsInf(m, 1) || !(m <= cut) {
			continue
		}
		st := &s.state[i]
		for j, name := range st.names {
			if req, ok := s.g.endpointRequired(i, name, s.required); ok && !math.IsInf(req, 1) {
				eps = append(eps, s.g.endpoint(i, name, st.out[j], req))
			}
		}
	}
	eps = sortEndpoints(eps)
	if len(eps) > k {
		eps = eps[:k]
	}
	return eps
}

// Design materializes the current session state back into a standalone
// design: every net's EditTree compacts to an immutable tree, and the stage
// and require cards carry over unchanged (structural guards keep them valid).
// AnalyzeDesign of the result agrees with the session's Report to numerical
// tolerance — the property tests pin this down.
func (s *Session) Design() (*netlist.Design, error) {
	d := &netlist.Design{
		Name:     s.g.design.Name,
		Stages:   append([]netlist.Stage(nil), s.g.design.Stages...),
		Requires: append([]netlist.Require(nil), s.g.design.Requires...),
	}
	for i, et := range s.trees {
		t, _, err := et.Materialize()
		if err != nil {
			return nil, fmt.Errorf("timing: materialize net %q: %w", s.g.nodes[i].name, err)
		}
		d.Nets = append(d.Nets, netlist.DesignNet{Name: s.g.nodes[i].name, Tree: t})
	}
	return d, nil
}

// SplitAddr splits an ECO address "net.node" at its first dot. Node is empty
// when the address carries no dot (net-level ops like scaleDriver).
func SplitAddr(addr string) (net, node string) {
	if i := strings.IndexByte(addr, '.'); i >= 0 {
		return addr[:i], addr[i+1:]
	}
	return addr, ""
}
