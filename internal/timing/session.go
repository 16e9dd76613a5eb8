package timing

import (
	"context"
	"encoding/json"
	"errors"
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
// a mutable EditTree for each net an edit has reached. Apply absorbs ECO
// edits in O(depth) per edited net and re-propagates interval arrivals only
// through the downstream fanout cone, with early exit where arrivals settle
// — against the full levelized sweep AnalyzeDesign pays (BenchmarkDesignECO
// measures the gap).
//
// A Session is not safe for concurrent use; wrap it in a mutex (as
// cmd/rcserve does) to share one across request handlers.
type Session struct {
	g        *Graph
	th       float64
	k        int
	required float64
	// trees[i] is net i's EditTree, mounted on the net's first edit (or
	// first ViewNetTree); nil means the graph's immutable tree, unchanged.
	trees []*incr.EditTree
	state []netTiming
	// netMin/netNeg are per-net endpoint-slack aggregates (worst slack and
	// summed negative slack), refreshed only for dirty nets. WNS/TNS after an
	// Apply cost one O(nets) fold over them, and WorstEndpoints expands only
	// the nets whose worst slack can rank.
	netMin []float64
	netNeg []float64
	// owned is the per-net dirty-range/ownership byte: ownTreeBit marks
	// trees[i] as exclusively this session's, ownStateBit the same for
	// state[i]'s arrival slice. Fork clears both bits on both sides; applyOne
	// clones a shared tree (or mounts an unmounted one) and refreshOut a
	// shared slice before their first mutation — copy-on-write, so a fork
	// costs O(nets) flag-and-struct copies instead of O(design) data. A
	// Scaled view never sets ownTreeBit: it owns no tree, and Follow only
	// borrows its source's. touchedBit marks, on a fork, a net listed in
	// touched.
	owned []uint8
	// lambda is 0 for a session; on a Scaled view and its forks it is the
	// factor λ by which Follow scales the source's delays.
	lambda float64
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
	// live and deck are the incremental renderers' state (live.go), built on
	// the first AppendReportJSON and AppendDeck; forks start without them.
	live *liveReport
	deck *liveDeck
	// parent is the session a fork was taken from (nil for a session and a
	// Scaled view) and forkEpoch the parent's epoch at the Fork. epoch counts
	// this session's state changes, Reverts included; unlike gen it never
	// goes back, so an unchanged epoch means an unchanged state.
	parent           *Session
	forkEpoch, epoch uint64
	// touched lists, on a fork, each net changed since the Fork or the last
	// Revert, once, with the tree it had before — what Revert puts back.
	touched []touchedNet
	// spare[i] is, on a fork, the private tree net i had until a Revert put
	// the shared one back; the net's next clone reuses its storage. nil
	// until the first such Revert.
	spare []*incr.EditTree
}

// touchedNet is one entry of Session.touched.
type touchedNet struct {
	net  int
	tree *incr.EditTree
}

// Ownership bits of Session.owned.
const (
	ownTreeBit uint8 = 1 << iota
	ownStateBit
	touchedBit
)

// NewSession builds the graph and runs the initial full analysis (tree
// sweeps across GOMAXPROCS workers unless opt.Sequential, then one DAG
// arrival pass). No EditTree is mounted until an edit reaches its net.
// Options are fixed for the session's lifetime.
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
// ECO machinery then re-times dirty cones incrementally, mounting each net's
// EditTree on its first edit.
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
		g:        g,
		th:       r.th,
		k:        r.k,
		required: opt.Required,
		trees:    make([]*incr.EditTree, len(g.nodes)),
		state:    state,
		netMin:   make([]float64, len(g.nodes)),
		netNeg:   make([]float64, len(g.nodes)),
		owned:    make([]uint8, len(g.nodes)),
		obs:      r.obs,
	}
	for i := range g.nodes {
		s.owned[i] = ownStateBit
		s.refreshSummary(i)
	}
	return s, nil
}

// Fork returns an independent what-if copy of the session in O(nets): the
// per-net timing state is deep-copied, while the EditTrees — the bulk of a
// session's memory — are shared copy-on-write, cloned only when one side
// first edits that net (a net neither side has mounted is mounted afresh). Edits to a fork never show through to the parent and
// vice versa. A trial vehicle takes one fork and, between trials, Reverts it
// to the parent's state in O(nets the trial touched) instead of forking
// again.
//
// Forks of the same parent may Apply and Revert concurrently with each other
// (each on its own goroutine): an Apply mutates only the fork's own state and
// its privately cloned trees, and merely reads trees still shared; a Revert
// reads the parent. Each individual Session, parent included, remains
// single-writer as always, and Fork itself must not race an Apply on the
// same session.
func (s *Session) Fork() *Session { return s.ForkInto(nil) }

// ForkInto is Fork into f's storage: f, a fork taken earlier from a session
// on the same graph, becomes a fresh fork of s, keeping its slices, its
// dirty-cone scratch and its private trees for reuse by the next clones of
// their nets. A trial loop whose parent changes between rounds (closure
// accepting a move) keeps one fork per worker this way instead of forking
// anew each round. f must not be used as what it was before; a nil f, or
// one that is no fork of this graph, allocates a fresh fork as Fork does.
func (s *Session) ForkInto(f *Session) *Session {
	if f == nil || f.parent == nil || f.g != s.g {
		f = &Session{}
	}
	for _, u := range f.touched {
		f.keepSpare(u)
	}
	owned := f.owned
	if len(owned) == len(s.trees) {
		clear(owned)
	} else {
		owned = make([]uint8, len(s.trees))
	}
	*f = Session{
		g:         s.g,
		th:        s.th,
		k:         s.k,
		required:  s.required,
		trees:     append(f.trees[:0], s.trees...),
		state:     append(f.state[:0], s.state...),
		netMin:    append(f.netMin[:0], s.netMin...),
		netNeg:    append(f.netNeg[:0], s.netNeg...),
		owned:     owned,
		lambda:    s.lambda,
		gen:       s.gen,
		report:    s.report, // reports are immutable once built
		queued:    f.queued,
		buckets:   f.buckets,
		moved:     f.moved,
		obs:       s.obs, // registries are goroutine-safe; forks share one
		parent:    s,
		forkEpoch: s.epoch,
		touched:   f.touched[:0],
		spare:     f.spare,
		// live and deck stay nil: a fork renders from scratch if ever asked.
	}
	// The copied netTiming structs still point at the parent's name, delay
	// and arrival slices. Names and delays are only ever replaced wholesale,
	// so sharing them is safe forever; arrival slices are cloned by
	// refreshOut before their first in-place write. The parent's trees and
	// slices are shared now too: its next mutation must also clone first, or
	// it would touch data a live fork reads. Clearing the ownership bits on
	// both sides is the whole dirty-range reset — the underlying arrays stay
	// put.
	for i := range s.owned {
		s.owned[i] &= touchedBit
	}
	return f
}

// Revert puts a fork back to its parent's state in O(nets the fork changed
// since the Fork or the previous Revert): for each such net it restores the
// tree the fork shared at the time, the parent's timing state and slack
// aggregates, and a cleared ownership byte, and it takes the parent's gen
// and memoized report. The fork keeps its dirty-cone scratch, so a fork that
// runs trial after trial allocates it once. Afterwards the fork Applies
// exactly as a fresh Fork of the parent would.
//
// Revert is refused when the parent changed since the Fork, and on a
// session or a Scaled view: a view rewrites every net's timing without
// recording it, so it has no parent state to return to (forks of a view
// revert to the view).
func (s *Session) Revert() error {
	p := s.parent
	if p == nil {
		return errors.New("timing: Revert needs a fork; a session or a Scaled view has no parent state")
	}
	if p.epoch != s.forkEpoch {
		return errors.New("timing: cannot Revert: the parent changed since the Fork")
	}
	for _, u := range s.touched {
		i := u.net
		s.keepSpare(u)
		s.trees[i], s.state[i], s.owned[i] = u.tree, p.state[i], 0
		s.netMin[i], s.netNeg[i] = p.netMin[i], p.netNeg[i]
		s.mark(i)
	}
	s.touched = s.touched[:0]
	s.gen, s.report = p.gen, p.report
	s.epoch++
	return nil
}

// keepSpare keeps, on a fork about to put back touched net u.net's earlier
// tree, the private tree it has now for the net's next clone to reuse. Any
// other tree it drops — a view-fork's borrowed one, which its source may
// reuse. Either way it drops the fork's deck state, whose sections name
// trees by address: a reused tree would alias a section's state.
func (s *Session) keepSpare(u touchedNet) {
	i := u.net
	if et := s.trees[i]; et != u.tree {
		s.deck = nil
		if s.owned[i]&ownTreeBit != 0 {
			if s.spare == nil {
				s.spare = make([]*incr.EditTree, len(s.trees))
			}
			s.spare[i] = et
		}
	}
}

// touch records on a fork that net i is about to change, with its current
// tree (nil when unmounted), the first time since the Fork or the last
// Revert; on a session or a Scaled view it does nothing.
func (s *Session) touch(i int) {
	if s.parent != nil && s.owned[i]&touchedBit == 0 {
		s.owned[i] |= touchedBit
		s.touched = append(s.touched, touchedNet{i, s.trees[i]})
	}
}

// Scaled returns a corner view of the session: a Fork whose every net delay
// is λ times the session's. The paper's TP, TD and TR are sums of R·C
// products and TMin/TMax (eqs. 13–17) are degree-1 homogeneous in them, so
// a corner that scales every resistance by r and every capacitance by c
// scales each net delay by exactly λ = r·c; gate delays and required times
// do not scale. The view is a Fork that Follows the session over every net,
// and it changes only by Follow: it refuses Apply, and it never mounts,
// clones or owns a tree. Edits to the session do not show in the view's
// timing until it follows them. λ must be finite and positive; at λ = 1 the
// view equals the session bit for bit.
func (s *Session) Scaled(lambda float64) *Session {
	v := s.Fork()
	v.parent, v.lambda = nil, lambda // every net changes below, untouched: not revertible
	all := make([]Edit, len(s.g.nodes))
	for i := range all {
		all[i].Net = s.g.nodes[i].name
	}
	v.Follow(context.Background(), s, all) // cannot fail: every name resolves
	return v
}

// Follow re-times a Scaled view, or a fork of one, after src — the session
// it scales, or a fork of that session — applied edits: for each net the
// edits name it installs src's current output names and λ times src's
// current delays, then runs the view's own dirty-cone sweep. These are the
// delays the view's own copy of the edited trees would give, at the cost of
// no tree edit or query. A named net src did not change (say, past an edit it
// refused) keeps its timing, so a caller may pass the whole batch. Follow
// borrows src's trees, unscaled, for the view's Design and AppendDeck,
// which render them as src holds them; a view's fork Reverts them with
// everything else. Follow on a session, or with no src or one on another
// graph, is refused; an unknown net stops it as Apply stops.
func (s *Session) Follow(ctx context.Context, src *Session, edits []Edit) (ApplyResult, error) {
	if src == nil {
		return ApplyResult{Gen: s.gen}, errors.New("timing: Follow needs a source session")
	}
	return s.retime(ctx, src, edits)
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
// still shared with a fork (or a fork's parent), or mounting it on the
// graph's tree if no edit has reached the net yet.
func (s *Session) ownTree(i int) *incr.EditTree {
	if s.owned[i]&ownTreeBit == 0 {
		s.touch(i)
		if et := s.trees[i]; et != nil {
			var spare *incr.EditTree
			if s.spare != nil {
				spare, s.spare[i] = s.spare[i], nil
			}
			s.trees[i] = et.CloneInto(spare)
		} else {
			s.trees[i] = incr.New(s.g.nodes[i].tree)
		}
		s.owned[i] |= ownTreeBit
	}
	return s.trees[i]
}

// nodeTree is the topology a structural guard reads: a mounted EditTree, or
// the graph's tree for a net no edit has reached.
type nodeTree interface {
	Lookup(name string) (incr.NodeID, bool)
	Parent(id incr.NodeID) incr.NodeID
}

// tree returns net i's current topology without mounting it.
func (s *Session) tree(i int) nodeTree {
	if et := s.trees[i]; et != nil {
		return et
	}
	return s.g.nodes[i].tree
}

// Gen returns the session generation; it bumps once per Apply that changed
// any timing state, so equal generations imply identical reports.
func (s *Session) Gen() uint64 { return s.gen }

// Threshold returns the session's switching threshold.
func (s *Session) Threshold() float64 { return s.th }

// Required returns the session's default required arrival time (<= 0 means
// endpoints without an explicit .require card are unconstrained). A
// variation analysis of the session's Design takes it to reproduce the
// session's constraint defaults.
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
// intended pairing). A net no edit has reached is cloned from the graph's
// tree.
func (s *Session) CloneNetTree(net string) (*incr.EditTree, bool) {
	i, err := s.netIndex(net)
	if err != nil {
		return nil, false
	}
	if et := s.trees[i]; et != nil {
		return et.Clone(), true
	}
	return incr.New(s.g.nodes[i].tree), true
}

// ViewNetTree returns one net's live EditTree for topology inspection
// (Lookup, Parent, Children, Edge, NodeCap, SubtreeCap, Outputs) without
// the O(n) clone CloneNetTree pays. The view is strictly read-only: callers
// must not invoke mutating methods — nor Times, which fills a memo — and
// must not hold the view across an Apply, which may swap the tree out under
// copy-on-write. Probing edits belongs on a CloneNetTree copy. The first
// view of a net no edit has reached mounts its EditTree, so ViewNetTree is
// a write under the session's single-writer rule, as Apply is. A Scaled
// view mounts nothing: its view of an unmounted net is a fresh overlay on
// the graph's tree.
func (s *Session) ViewNetTree(net string) (*incr.EditTree, bool) {
	i, err := s.netIndex(net)
	if err != nil {
		return nil, false
	}
	if s.trees[i] == nil {
		if s.lambda != 0 {
			return incr.New(s.g.nodes[i].tree), true // a view mounts nothing
		}
		s.ownTree(i)
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
	return s.g.protectedOutputs(i)
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
// under it alongside the duration histograms both forms always record. A
// Scaled view refuses it: a view changes only by Follow.
func (s *Session) ApplyCtx(ctx context.Context, edits []Edit) (ApplyResult, error) {
	return s.retime(ctx, nil, edits)
}

// retime is ApplyCtx's and Follow's shared body. It resolves each edit's
// net and, on a session (no src), applies the edit, stopping at the first
// error; then it re-times the dirty cone of those nets, whose delays come
// from their trees on a session and from src on a view. A session refuses
// a src, and a view needs one on its graph.
func (s *Session) retime(ctx context.Context, src *Session, edits []Edit) (ApplyResult, error) {
	if (src == nil) != (s.lambda == 0) || src != nil && src.g != s.g {
		return ApplyResult{Gen: s.gen}, errors.New("timing: a session changes by Apply, a Scaled view only by Follow from a source on its graph")
	}
	ctx, op := trace.StartOp(ctx, s.obs, "timing_eco_apply")
	var res ApplyResult
	edited := map[int]bool{}
	var firstErr error
	for idx, e := range edits {
		i, err := s.netIndex(e.Net)
		if err == nil && src == nil {
			err = s.applyOne(i, e)
		}
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
		if err := s.propagate(edited, src, &res); err != nil && firstErr == nil {
			firstErr = err
		}
		psp.SetAttr("dirty_nets", fmt.Sprint(res.DirtyNets))
		psp.End()
		s.gen++
		s.epoch++
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

// applyOne performs one edit on its net i. The design-level guards are the
// session's: outputs that stage edges tap or requires pin cannot be pruned
// away or undesignated. ApplyTreeEdit does the rest on the net's own
// (copy-on-write) EditTree.
func (s *Session) applyOne(i int, e Edit) error {
	switch e.Op {
	case "prune":
		if id, ok := s.tree(i).Lookup(e.Node); ok {
			if name, bad := s.pruneWouldOrphan(i, id); bad {
				return fmt.Errorf("cannot prune %q: output %q is tapped by a stage or pinned by a require", e.Node, name)
			}
		}
	case "removeOutput":
		if s.g.protects(i, e.Node) {
			return fmt.Errorf("output %q is tapped by a stage or pinned by a require", e.Node)
		}
	}
	if err := ApplyTreeEdit(s.ownTree(i), e); err != nil {
		return fmt.Errorf("net %q: %w", e.Net, err)
	}
	return nil
}

// ApplyTreeEdit performs one edit on a single net's EditTree: the op
// dispatcher shared by Session.Apply and cmd/rcserve's tree sessions. It
// resolves the node names and numbers the op needs (e.Net is not read) and
// refuses an edit that would leave the net with no capacitance or no
// designated output: the first has undefined characteristic times, and the
// second re-promotes every leaf on Materialize, so the tree would no longer
// be the one a full analysis times. A refused edit leaves the tree's
// elements, outputs and Gen unchanged.
func ApplyTreeEdit(et *incr.EditTree, e Edit) error {
	node := func(name string) (incr.NodeID, error) {
		if name == "" {
			return 0, fmt.Errorf("missing node name")
		}
		id, ok := et.Lookup(name)
		if !ok {
			return 0, fmt.Errorf("unknown node %q", name)
		}
		return id, nil
	}
	num := func(what string, p *float64) (float64, error) {
		if p == nil {
			return 0, fmt.Errorf("missing %q", what)
		}
		return *p, nil
	}
	// The running aggregates carry rounding residue, which must not decide a
	// total that lands near zero: the tree re-derives them exactly first.
	// Summed from nonnegative terms, they give exactly 0 when nothing would
	// remain.
	drained := func(newTotal func() float64) error {
		if newTotal() > 1e-9*et.TotalCap() {
			return nil
		}
		et.Recompute()
		if newTotal() <= 0 {
			return fmt.Errorf("edit would leave the net with no capacitance")
		}
		return nil
	}
	// Every op but scaleDriver and grow addresses a node: resolve it first,
	// so its error comes before any number's, as the ops read.
	var id incr.NodeID
	switch e.Op {
	case "setR", "setC", "addC", "setLine", "prune", "addOutput", "removeOutput":
		var err error
		if id, err = node(e.Node); err != nil {
			return err
		}
	}
	switch e.Op {
	case "setR":
		r, err := num("r", e.R)
		if err != nil {
			return err
		}
		return et.SetResistance(id, r)
	case "setC":
		c, err := num("c", e.C)
		if err != nil {
			return err
		}
		if err := drained(func() float64 { return et.TotalCap() - et.NodeCap(id) + c }); err != nil {
			return err
		}
		return et.SetCapacitance(id, c)
	case "addC":
		c, err := num("c", e.C)
		if err != nil {
			return err
		}
		if err := drained(func() float64 { return et.TotalCap() + c }); err != nil {
			return err
		}
		return et.AddCapacitance(id, c)
	case "setLine":
		r, err := num("r", e.R)
		if err != nil {
			return err
		}
		c, err := num("c", e.C)
		if err != nil {
			return err
		}
		_, _, oldC := et.Edge(id)
		if err := drained(func() float64 { return et.TotalCap() - oldC + c }); err != nil {
			return err
		}
		return et.SetLine(id, r, c)
	case "scaleDriver":
		f, err := num("factor", e.Factor)
		if err != nil {
			return err
		}
		return et.ScaleDriver(f)
	case "grow":
		parent, err := node(e.Parent)
		if err != nil {
			return fmt.Errorf("parent: %w", err)
		}
		r, err := num("r", e.R)
		if err != nil {
			return err
		}
		var c float64
		if e.C != nil {
			c = *e.C
		}
		kind, err := EdgeKindOf(e.Kind, c)
		if err != nil {
			return err
		}
		_, err = et.Grow(parent, e.Name, kind, r, c)
		return err
	case "prune":
		if outputsUnder(et, id) == len(et.Outputs()) {
			return fmt.Errorf("cannot prune %q: the net would be left without designated outputs", e.Node)
		}
		if err := drained(func() float64 { return et.TotalCap() - et.SubtreeCap(id) }); err != nil {
			return err
		}
		return et.Prune(id)
	case "addOutput":
		return et.AddOutput(id)
	case "removeOutput":
		if len(et.Outputs()) == 1 {
			return fmt.Errorf("cannot remove %q: the net would be left without designated outputs", e.Node)
		}
		if !et.RemoveOutput(id) {
			return fmt.Errorf("node %q is not an output", e.Node)
		}
		return nil
	}
	return fmt.Errorf("unknown op %q", e.Op)
}

// EdgeKindOf maps the wire-form kind string onto rctree's enum, defaulting
// to "a line when C > 0, a resistor otherwise" as the session endpoints do.
func EdgeKindOf(kind string, c float64) (rctree.EdgeKind, error) {
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
// It names the least such output, so the refusal reads the same every time.
func (s *Session) pruneWouldOrphan(i int, q incr.NodeID) (string, bool) {
	t := s.tree(i)
	for _, name := range s.g.protectedOutputs(i) {
		if id, ok := t.Lookup(name); ok && under(t, id, q) {
			return name, true
		}
	}
	return "", false
}

// outputsUnder counts et's designated outputs lying at or below node q.
func outputsUnder(et *incr.EditTree, q incr.NodeID) int {
	count := 0
	for _, o := range et.Outputs() {
		if under(et, o, q) {
			count++
		}
	}
	return count
}

// under reports whether node x lies at or below node q, walking x's root
// path.
func under(t nodeTree, x, q incr.NodeID) bool {
	for ; x != q; x = t.Parent(x) {
		if x == incr.Root {
			return false
		}
	}
	return true
}

// netDelay derives edited net i's designated output names and delay
// intervals. A session reads them from its EditTree, which the edit that
// dirtied the net mounted: one O(depth) characteristic-times query plus a
// bound evaluation per output. A view takes src's current names and λ times
// its current delays, and borrows its tree; propagate touched the net
// first, so a Revert puts the view's own pointer back.
func (s *Session) netDelay(i int, src *Session) ([]string, []Interval, error) {
	if src != nil {
		s.trees[i] = src.trees[i]
		st := &src.state[i]
		delay := make([]Interval, len(st.delay))
		for j, d := range st.delay {
			delay[j] = Interval{d.Min * s.lambda, d.Max * s.lambda}
		}
		return st.names, delay, nil
	}
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
// delays from their EditTrees, or on a view follow src's, then arrivals
// sweep level by level through
// the downstream fanout, early-exiting any net whose input interval (and
// delay) came back unchanged. Only fanouts tapping an output whose arrival
// actually moved are enqueued, so a mid-cone settle stops the wave.
func (s *Session) propagate(edited map[int]bool, src *Session, res *ApplyResult) error {
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
			s.touch(i) // input and worst change even where outputs settle
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
				names, delay, err := s.netDelay(i, src)
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
				s.mark(i)
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

// Headline is a report's header: every field of Report but the endpoint
// table and the paths, plus the table's length and verdict counts.
type Headline struct {
	Design                 string
	Threshold              float64
	Nets, Stages, Levels   int
	WNS, TNS               float64
	Endpoints              int
	Passes, Unknown, Fails int
}

// tally counts one endpoint into the verdict counts: constrained endpoints
// only, as CountByVerdict counts them.
func (h *Headline) tally(e *EndpointSlack) {
	if !e.Constrained() {
		return
	}
	switch e.Verdict {
	case core.Passes:
		h.Passes++
	case core.Fails:
		h.Fails++
	default:
		h.Unknown++
	}
}

// Headline returns Report()'s header, endpoint count and CountByVerdict
// without assembling the report: one pass over the current endpoints, with
// no sort, no paths and no allocation; WNS/TNS come from Summary.
func (s *Session) Headline() Headline {
	wns, tns := s.Summary()
	h := Headline{
		Design: s.g.design.Name, Threshold: s.th,
		Nets: len(s.g.nodes), Stages: len(s.g.design.Stages), Levels: len(s.g.levels),
		WNS: wns, TNS: tns,
	}
	for i := range s.state {
		st := &s.state[i]
		for j, name := range st.names {
			if req, ok := s.g.endpointRequired(i, name, s.required); ok {
				ep := s.g.endpoint(i, name, st.out[j], req)
				h.Endpoints++
				h.tally(&ep)
			}
		}
	}
	return h
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
// design: every mounted net's EditTree compacts to an immutable tree, a net
// no edit has reached keeps the graph's tree, and the stage and require
// cards carry over unchanged (structural guards keep them valid).
// AnalyzeDesign of the result agrees with the session's Report to numerical
// tolerance — the property tests pin this down. A Scaled view materializes
// the unscaled trees it borrowed from its source.
func (s *Session) Design() (*netlist.Design, error) {
	d := &netlist.Design{
		Name:     s.g.design.Name,
		Stages:   append([]netlist.Stage(nil), s.g.design.Stages...),
		Requires: append([]netlist.Require(nil), s.g.design.Requires...),
	}
	for i, et := range s.trees {
		t := s.g.nodes[i].tree
		if et != nil {
			var err error
			if t, _, err = et.Materialize(); err != nil {
				return nil, fmt.Errorf("timing: materialize net %q: %w", s.g.nodes[i].name, err)
			}
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
