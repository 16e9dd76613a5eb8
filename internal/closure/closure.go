package closure

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/mcd"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rctree"
	"repro/internal/timing"
	"repro/internal/trace"
)

// Cost-model constants (abstract area units; see the package documentation).
const (
	driverAreaCost = 8.0  // upsizing by 1/f costs driverAreaCost·(1/f−1)
	repeaterCost   = 6.0  // one inserted repeater
	trimCostBase   = 2.0  // load trim: base plus the capacitance removed
	pruneCost      = 1.5  // ECO disruption of deleting a stub
	tnsWeight      = 0.05 // TNS share of the combined objective
)

// coneDepth caps how many nets of each endpoint's critical upstream cone
// generate candidates.
const coneDepth = 4

// Options configures a closure run. The zero value closes with a 32-move
// budget, no cost ceiling and the 4 worst endpoints mined per iteration.
type Options struct {
	// Timing mounts the session when closing a Design directly
	// (CloseDesign); Close on an existing session ignores it.
	Timing timing.Options
	// MaxMoves caps accepted moves (0 means 32; negative means unlimited).
	MaxMoves int
	// MaxCost caps the cumulative cost of accepted moves (<= 0 or +Inf:
	// unlimited; NaN is refused).
	MaxCost float64
	// TopEndpoints is how many failing endpoints are mined for candidates
	// per iteration (0 means 4).
	TopEndpoints int
	// Obs receives run telemetry: moves generated/trialed/accepted, fork
	// counts, run spans, and the live WNS/TNS/cost gauges. Nil disables it.
	Obs *obs.Registry
	// Progress, when non-nil, is called synchronously on the engine
	// goroutine after every accepted move — the hook rcserve's SSE stream
	// and statime's -progress flag hang off. A slow callback slows the run;
	// it must not call back into the session.
	Progress func(ProgressEvent)
	// Corners, when non-empty, makes the run corner-aware: each corner is a
	// Session.Scaled view of the main session (every net delay times
	// RScale·CScale), every candidate move is trialed at every corner by a
	// view fork that follows the typical trial's delays, moves that regress
	// any corner's WNS are vetoed even when they improve the typical corner,
	// gains are scored at the currently-worst corner, and the run only
	// closes once every corner meets timing. A corner with scales (1, 1) is
	// the main session itself and is skipped.
	Corners []mcd.Corner
}

// CornerStatus is one swept corner's before/after in a corner-aware run.
type CornerStatus struct {
	Name       string  `json:"name"`
	RScale     float64 `json:"rScale"`
	CScale     float64 `json:"cScale"`
	InitialWNS float64 `json:"-"`
	FinalWNS   float64 `json:"-"`
}

// MarshalJSON renders the WNS fields with +Inf omitted (wire convention).
func (c CornerStatus) MarshalJSON() ([]byte, error) {
	type plain CornerStatus
	return json.Marshal(struct {
		plain
		InitialWNS *float64 `json:"initialWns,omitempty"`
		FinalWNS   *float64 `json:"finalWns,omitempty"`
	}{plain(c), finitePtr(c.InitialWNS), finitePtr(c.FinalWNS)})
}

// ProgressEvent is one accepted move as seen by Options.Progress: the move,
// the design state after it, and the (cost, WNS) frontier point it visited.
type ProgressEvent struct {
	// Seq counts accepted moves from 1.
	Seq int `json:"seq"`
	// Move is the accepted repair.
	Move Move `json:"move"`
	// WNS/TNS are the design's slack numbers after the move; CumCost the
	// cumulative accepted cost; Gain the combined objective improvement.
	WNS     float64 `json:"wns"`
	TNS     float64 `json:"tns"`
	CumCost float64 `json:"cumCost"`
	Gain    float64 `json:"gain"`
	// Candidates and Trials are the iteration's generation/evaluation sizes.
	Candidates int `json:"candidates"`
	Trials     int `json:"trials"`
}

// validate refuses what resolve cannot default: a NaN MaxCost, against
// which every cost check is false, so the run would have no ceiling.
func (o Options) validate() error {
	if math.IsNaN(o.MaxCost) {
		return errors.New("closure: MaxCost is NaN (use 0, a negative value or +Inf for no ceiling)")
	}
	return nil
}

func (o Options) resolve() Options {
	if o.MaxMoves == 0 {
		o.MaxMoves = 32
	}
	if o.MaxCost <= 0 {
		o.MaxCost = math.Inf(1)
	}
	if o.TopEndpoints <= 0 {
		o.TopEndpoints = 4
	}
	return o
}

// Move is one candidate (or accepted) repair: a short ECO edit list on a
// single net, priced in abstract area units.
type Move struct {
	// Kind names the generator: upsizeDriver, tunedDriver, rebufferWire,
	// trimLoad or pruneStub.
	Kind string `json:"kind"`
	// Net is the net the move edits.
	Net string `json:"net"`
	// Desc is a human-readable one-liner ("scale driver to 0.5x").
	Desc string `json:"desc"`
	// Cost is the move's price in the package cost model.
	Cost float64 `json:"cost"`
	// Edits is the move's ECO edit list, replayable through
	// timing.ParseEdits/FormatEdits.
	Edits []timing.Edit `json:"edits"`
}

// TrajectoryPoint records one accepted move and the design state after it.
type TrajectoryPoint struct {
	Move Move
	// CumCost is the cumulative accepted cost including this move.
	CumCost float64
	// WNS and TNS are the design's slack numbers after the move.
	WNS, TNS float64
	// Gain is the combined objective improvement (ΔWNS + 0.05·ΔTNS) the
	// move bought.
	Gain float64
	// Candidates counts the moves generated this iteration; Trials the
	// what-if evaluations that completed without a structural-guard
	// rejection (so Trials < Candidates flags moves the session refused).
	Candidates, Trials int
}

// ParetoPoint is one non-dominated (cumulative cost, WNS) state visited
// during the search — including trial states the greedy path rejected.
type ParetoPoint struct {
	Cost float64 `json:"cost"`
	WNS  float64 `json:"wns"`
}

// Report is the outcome of one closure run.
type Report struct {
	Design     string
	Threshold  float64
	InitialWNS float64
	InitialTNS float64
	FinalWNS   float64
	FinalTNS   float64
	// Closed reports whether the engine reached WNS >= 0; Reason says why
	// the loop stopped ("met", "move budget exhausted", "cost ceiling
	// reached", "no improving candidate", "no candidates", "no failing
	// endpoints", or "cancelled" when the context expired mid-run).
	Closed bool
	Reason string
	// Cost is the cumulative cost of the accepted moves.
	Cost float64
	// Trials counts what-if session evaluations across all iterations;
	// GuidedProbes/GuidedEdits count the opt bisection probes spent by the
	// tunedDriver generator and the EditTree edits they performed.
	Trials       int
	GuidedProbes int
	GuidedEdits  int
	// Moves is the accepted trajectory, in acceptance order.
	Moves []TrajectoryPoint
	// Pareto is the non-dominated frontier of visited (cost, WNS) states,
	// cost ascending.
	Pareto []ParetoPoint
	// Edits is the accepted edit list, flattened in application order —
	// FormatEdits of this list replayed against the original design
	// reproduces FinalWNS/FinalTNS.
	Edits []timing.Edit
	// Corners records each swept corner's WNS before and after the run
	// (empty unless Options.Corners was set). CornerVetoes counts candidate
	// moves rejected solely because they regressed a corner's WNS while not
	// regressing the typical one.
	Corners      []CornerStatus
	CornerVetoes int
}

// Close runs the repair loop against an existing session. The session is
// mutated: accepted moves stay applied, so on return it sits at the
// report's final state (callers wanting a what-if run pass sess.Fork()).
//
// If ctx expires mid-run the loop stops, and Close returns the context
// error together with the partial report — the moves accepted before the
// cancellation are applied to the session, and the report (reason
// "cancelled") is the only record of what they were, so callers should
// surface it rather than discard it.
func Close(ctx context.Context, sess *timing.Session, o Options) (*Report, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	e := &engine{sess: sess, opt: o.resolve(), mount: scaledCorner}
	return e.run(ctx)
}

// CloseDesign mounts a session on the design (with o.Timing) and closes it.
// The design itself is never mutated; the returned report's Edits replay
// the repair onto it.
func CloseDesign(ctx context.Context, d *netlist.Design, o Options) (*Report, error) {
	sess, err := timing.NewSession(ctx, d, o.Timing)
	if err != nil {
		return nil, err
	}
	return Close(ctx, sess, o)
}

// engine is the per-run state of the accept loop.
type engine struct {
	sess    *timing.Session
	opt     Options
	rep     *Report
	visited []ParetoPoint // every trial state, raw (pre-frontier)
	corners []*cornerState
	// mount builds a swept corner's view of the session: scaledCorner, or
	// the shadow-session oracle in closure_test.go.
	mount func(*timing.Session, mcd.Corner) *cornerState
	// forks are the trial forks: one of the session, then one of each swept
	// corner's view, in corners order. Each round re-forks them in place
	// (ForkInto), so they and the trees they cloned outlive a round.
	forks []*timing.Session
}

// cornerState is one swept corner's view of the design and its running
// WNS/TNS. follow re-times the view, or a fork of it, after src — the
// session or a trial fork of it — applied a move's edits.
type cornerState struct {
	c        mcd.Corner
	sess     *timing.Session
	follow   func(view *timing.Session, ctx context.Context, src *timing.Session, edits []timing.Edit) (timing.ApplyResult, error)
	wns, tns float64
}

// scaledCorner mounts corner c as sess.Scaled(RScale·CScale): the paper's
// bounds are degree-1 homogeneous in R·C, so the corner scales every net
// delay by that product, and the view follows the session's delays.
func scaledCorner(sess *timing.Session, c mcd.Corner) *cornerState {
	return &cornerState{c: c, sess: sess.Scaled(c.RScale * c.CScale), follow: (*timing.Session).Follow}
}

// mountCorners mounts a view per non-typical corner.
func (e *engine) mountCorners() error {
	for _, c := range e.opt.Corners {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("closure: %w", err)
		}
		if c.RScale == 1 && c.CScale == 1 {
			continue // the typical corner is the main session
		}
		cs := e.mount(e.sess, c)
		cs.wns, cs.tns = cs.sess.Summary()
		e.corners = append(e.corners, cs)
		e.rep.Corners = append(e.rep.Corners, CornerStatus{
			Name: c.Name, RScale: c.RScale, CScale: c.CScale,
			InitialWNS: cs.wns, FinalWNS: cs.wns,
		})
	}
	return nil
}

// worstWNS is the minimum WNS over the typical session and every corner.
func (e *engine) worstWNS(typWNS float64) float64 {
	w := typWNS
	for _, cs := range e.corners {
		if cs.wns < w {
			w = cs.wns
		}
	}
	return w
}

func (e *engine) run(ctx context.Context) (*Report, error) {
	ctx, op := trace.StartOp(ctx, e.opt.Obs, "closure_run")
	defer op.End()
	wns, tns := e.sess.Summary()
	e.rep = &Report{
		Design:     e.sess.DesignName(),
		Threshold:  e.sess.Threshold(),
		InitialWNS: wns,
		InitialTNS: tns,
		FinalWNS:   wns,
		FinalTNS:   tns,
	}
	e.visited = append(e.visited, ParetoPoint{0, wns})
	if err := e.mountCorners(); err != nil {
		return nil, err
	}
	if e.worstWNS(wns) >= 0 {
		e.rep.Closed = true
		e.rep.Reason = "no failing endpoints"
		e.rep.Pareto = frontier(e.visited)
		return e.rep, nil
	}
	var runErr error
	for {
		if err := ctx.Err(); err != nil {
			// The moves accepted so far are applied to the session; the
			// partial report is the only record of them, so it rides along
			// with the error.
			e.rep.Reason = "cancelled"
			runErr = err
			op.SetError(err)
			break
		}
		if e.opt.MaxMoves >= 0 && len(e.rep.Moves) >= e.opt.MaxMoves {
			e.rep.Reason = "move budget exhausted"
			break
		}
		// Mine the typical corner's failing endpoints; when only a swept
		// corner fails, mine that corner's instead (net/output names are
		// shared, so the main session's geometry generates the moves).
		mine := e.sess
		if wns >= 0 {
			for _, cs := range e.corners {
				if cs.wns < 0 {
					mine = cs.sess
					break
				}
			}
		}
		cands, costFiltered := e.generate(mine.WorstEndpoints(e.opt.TopEndpoints))
		e.opt.Obs.Counter("closure_moves_generated_total").Add(int64(len(cands)))
		if len(cands) == 0 {
			if costFiltered {
				e.rep.Reason = "cost ceiling reached"
			} else {
				e.rep.Reason = "no candidates"
			}
			break
		}
		results := e.evaluate(ctx, cands)
		// Score gains at the currently-worst corner (the typical session
		// counts as a corner here): closing the worst corner is what moves
		// the design's certified figure.
		worstIdx := -1 // -1: the typical session
		curW, curT := wns, tns
		for j, cs := range e.corners {
			if cs.wns < curW {
				worstIdx, curW, curT = j, cs.wns, cs.tns
			}
		}
		best, bestScore := -1, 0.0
		for i, tr := range results {
			if tr.err != nil {
				continue
			}
			e.visited = append(e.visited, ParetoPoint{e.rep.Cost + cands[i].Cost, tr.res.WNS})
			if tr.res.WNS < wns { // never regress the typical worst slack
				continue
			}
			// Corner veto: a move that helps typ but regresses any swept
			// corner's WNS trades certified margin for nominal margin — reject.
			vetoed := false
			for j, cs := range e.corners {
				if tr.corner[j].WNS < cs.wns-1e-9 {
					vetoed = true
					break
				}
			}
			if vetoed {
				e.rep.CornerVetoes++
				continue
			}
			newW, newT := tr.res.WNS, tr.res.TNS
			if worstIdx >= 0 {
				newW, newT = tr.corner[worstIdx].WNS, tr.corner[worstIdx].TNS
			}
			gain := (newW - curW) + tnsWeight*(newT-curT)
			if gain <= 0 {
				continue
			}
			if score := gain / cands[i].Cost; best < 0 || score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			e.rep.Reason = "no improving candidate"
			break
		}
		winner := cands[best]
		actx, aop := trace.StartOp(ctx, e.opt.Obs, "closure_accept", "kind", winner.Kind)
		aop.Span().SetAttr("net", winner.Net)
		res, err := e.sess.ApplyCtx(actx, winner.Edits)
		if err != nil {
			// The trial on an identical fork succeeded, so this is a bug,
			// not a user input problem — surface it loudly.
			aop.SetError(err)
			aop.End()
			return nil, fmt.Errorf("closure: accepted move failed on commit: %w", err)
		}
		prevW, prevT := curW, curT
		for _, cs := range e.corners {
			cres, err := cs.follow(cs.sess, actx, e.sess, winner.Edits)
			if err != nil {
				aop.SetError(err)
				aop.End()
				return nil, fmt.Errorf("closure: accepted move failed on corner %q: %w", cs.c.Name, err)
			}
			cs.wns, cs.tns = cres.WNS, cres.TNS
		}
		aop.End()
		wns, tns = res.WNS, res.TNS
		// Gain as scored: at the corner that was worst before the move.
		newW, newT := wns, tns
		if worstIdx >= 0 {
			newW, newT = e.corners[worstIdx].wns, e.corners[worstIdx].tns
		}
		gain := (newW - prevW) + tnsWeight*(newT-prevT)
		ok := 0
		for _, tr := range results {
			if tr.err == nil {
				ok++
			}
		}
		e.rep.Cost += winner.Cost
		e.rep.Edits = append(e.rep.Edits, winner.Edits...)
		e.rep.Moves = append(e.rep.Moves, TrajectoryPoint{
			Move: winner, CumCost: e.rep.Cost, WNS: wns, TNS: tns,
			Gain: gain, Candidates: len(cands), Trials: ok,
		})
		if reg := e.opt.Obs; reg != nil {
			reg.Counter("closure_moves_accepted_total").Add(1)
			reg.Gauge("closure_wns").Set(wns)
			reg.Gauge("closure_tns").Set(tns)
			reg.Gauge("closure_cost").Set(e.rep.Cost)
		}
		if e.opt.Progress != nil {
			e.opt.Progress(ProgressEvent{
				Seq: len(e.rep.Moves), Move: winner,
				WNS: wns, TNS: tns, CumCost: e.rep.Cost, Gain: gain,
				Candidates: len(cands), Trials: ok,
			})
		}
		if e.worstWNS(wns) >= 0 {
			e.rep.Closed = true
			e.rep.Reason = "met"
			break
		}
	}
	e.rep.FinalWNS, e.rep.FinalTNS = wns, tns
	e.rep.Closed = e.worstWNS(wns) >= 0
	for i, cs := range e.corners {
		e.rep.Corners[i].FinalWNS = cs.wns
	}
	e.rep.Pareto = frontier(e.visited)
	return e.rep, runErr
}

// trial is one candidate's what-if outcome: the typical-corner result plus,
// in a corner-aware run, one result per swept corner (indexed like
// engine.corners).
type trial struct {
	res    timing.ApplyResult
	corner []timing.ApplyResult
	err    error
}

// evaluate runs every candidate as an independent what-if trial, in
// candidate order: its edits are applied to the session's fork, each swept
// corner's view fork follows that fork, and the forks are Reverted
// afterwards. The forks are re-forked in place once per round; ForkInto and
// Revert leave a fork as a fresh Fork would be, so a trial's outcome does
// not depend on the trials before it. The result slice is indexed like
// cands. Each trial attaches a closure_trial span under ctx's closure_run
// span.
func (e *engine) evaluate(ctx context.Context, cands []Move) []trial {
	if e.forks == nil {
		e.forks = make([]*timing.Session, 1+len(e.corners))
	}
	f := e.forks
	f[0] = e.sess.ForkInto(f[0])
	for j, cs := range e.corners {
		f[1+j] = cs.sess.ForkInto(f[1+j])
	}
	results := make([]trial, len(cands))
	e.rep.Trials += len(cands)
	e.opt.Obs.Counter("closure_forks_total").Add(int64(len(f)))
	e.opt.Obs.Counter("closure_trials_total").Add(int64(len(cands)))
	for i, c := range cands {
		tctx, top := trace.StartOp(ctx, e.opt.Obs, "closure_trial", "kind", c.Kind)
		top.Span().SetAttr("net", c.Net)
		res, err := f[0].ApplyCtx(tctx, c.Edits)
		tr := trial{res: res, err: err}
		if err == nil && len(e.corners) > 0 {
			tr.corner = make([]timing.ApplyResult, len(e.corners))
			for j, cs := range e.corners {
				cres, cerr := cs.follow(f[1+j], tctx, f[0], c.Edits)
				if cerr != nil {
					tr.err = cerr
					break
				}
				tr.corner[j] = cres
			}
		}
		// Structural-guard rejections are expected trial outcomes, not trace
		// errors; the span just records them.
		if tr.err != nil {
			top.Span().SetAttr("rejected", tr.err.Error())
		}
		top.End()
		results[i] = tr
		// A Revert fails only if a fork's parent changed, and no session or
		// view changes while a round's trials run: that would be a bug here.
		for _, fk := range f {
			if err := fk.Revert(); err != nil {
				panic(fmt.Sprintf("closure: trial fork: %v", err))
			}
		}
	}
	return results
}

// generate mines the failing endpoints among worst — endpoints in report
// order, worst first — for candidate moves, up to Options.TopEndpoints of
// them. Everything iterates deterministically (sorted endpoints, cone order,
// ascending node IDs), so two runs over the same state produce the same
// candidate list in the same order. costFiltered reports whether the cost
// ceiling rejected at least one otherwise-viable candidate — it phrases the
// stop reason when the list comes back empty.
func (e *engine) generate(worst []timing.EndpointSlack) (cands []Move, costFiltered bool) {
	seen := map[string]bool{}
	add := func(m Move) {
		key := m.Kind + "|" + m.Net + "|" + m.Desc
		if seen[key] {
			return
		}
		if e.rep.Cost+m.Cost > e.opt.MaxCost {
			costFiltered = true
			return
		}
		seen[key] = true
		cands = append(cands, m)
	}
	mined := 0
	for _, ep := range worst {
		if !(ep.Slack < 0) {
			break // sorted worst-first: the rest pass or are unconstrained
		}
		if mined >= e.opt.TopEndpoints {
			break
		}
		mined++
		cone := e.sess.CriticalUpstream(ep.Net)
		if len(cone) > coneDepth {
			cone = cone[:coneDepth]
		}
		for _, net := range cone {
			for _, f := range []float64{0.7, 0.5} {
				add(Move{
					Kind: "upsizeDriver", Net: net,
					Desc: fmt.Sprintf("scale driver to %gx", f),
					Cost: driverAreaCost * (1/f - 1),
					Edits: []timing.Edit{{
						Op: "scaleDriver", Net: net, Factor: ptr(f),
					}},
				})
			}
			if m, ok := e.pruneStub(net); ok {
				add(m)
			}
		}
		if m, ok := e.tunedDriver(ep); ok {
			add(m)
		}
		if m, ok := e.rebufferWire(ep); ok {
			add(m)
		}
		if m, ok := e.trimLoad(ep); ok {
			add(m)
		}
	}
	return cands, costFiltered
}

// tunedDriver bisects the endpoint net's driver scale for the largest
// (cheapest) factor whose certified TMax still meets the endpoint's local
// budget — opt.MaxParamStats probing a cloned EditTree, one SetResistance
// per driver edge per probe.
func (e *engine) tunedDriver(ep timing.EndpointSlack) (Move, bool) {
	in, ok := e.sess.InputArrival(ep.Net)
	if !ok || math.IsInf(ep.Required, 0) {
		return Move{}, false
	}
	budget := ep.Required - in.Max
	if budget <= 0 {
		return Move{}, false // the input is already too late; upstream moves must act
	}
	et, ok := e.sess.CloneNetTree(ep.Net)
	if !ok {
		return Move{}, false
	}
	out, ok := et.Lookup(ep.Output)
	if !ok {
		return Move{}, false
	}
	// Probe by absolute assignment (SetResistance from a recorded base), not
	// repeated ScaleDriver, so bisection steps do not compound.
	kids := et.Children(incr.Root)
	baseR := make([]float64, len(kids))
	for i, v := range kids {
		_, r, _ := et.Edge(v)
		baseR[i] = r
	}
	th := e.sess.Threshold()
	factor, stats, err := opt.MaxParamStats(0.02, 1, 1e-4, func(f float64) (bool, error) {
		for i, v := range kids {
			if err := et.SetResistance(v, baseR[i]*f); err != nil {
				return false, err
			}
		}
		tm, err := et.Times(out)
		if err != nil {
			return false, err
		}
		b, err := core.New(tm)
		if err != nil {
			return false, err
		}
		return b.TMax(th) <= budget, nil
	})
	e.rep.GuidedProbes += stats.Probes
	e.rep.GuidedEdits += stats.Probes * opt.EditsPerProbe * len(kids)
	if err != nil || factor >= 0.999 {
		return Move{}, false // unsatisfiable by sizing alone, or already met
	}
	return Move{
		Kind: "tunedDriver", Net: ep.Net,
		Desc: fmt.Sprintf("bisected driver scale to %.4gx for %s", factor, ep.Output),
		Cost: driverAreaCost * (1/factor - 1),
		Edits: []timing.Edit{{
			Op: "scaleDriver", Net: ep.Net, Factor: ptr(factor),
		}},
	}, true
}

// rebufferWire cuts the highest-resistance distributed line on the failing
// output's root path to half length and lands the repeater's input
// capacitance at the cut.
func (e *engine) rebufferWire(ep timing.EndpointSlack) (Move, bool) {
	et, ok := e.sess.ViewNetTree(ep.Net)
	if !ok {
		return Move{}, false
	}
	out, ok := et.Lookup(ep.Output)
	if !ok {
		return Move{}, false
	}
	bestID := incr.NodeID(-1)
	var bestR, bestC float64
	for v := out; v != incr.Root; v = et.Parent(v) {
		kind, r, c := et.Edge(v)
		if kind == rctree.EdgeLine && r > bestR {
			bestID, bestR, bestC = v, r, c
		}
	}
	if bestID < 0 {
		return Move{}, false // no distributed line on the path
	}
	node := et.Name(bestID)
	parent := et.Name(et.Parent(bestID))
	repIn := 0.1 * bestC // the repeater loads the cut with ~10% of the wire's C
	return Move{
		Kind: "rebufferWire", Net: ep.Net,
		Desc: fmt.Sprintf("halve line %s and repeat at %s", node, parent),
		Cost: repeaterCost,
		Edits: []timing.Edit{
			{Op: "setLine", Net: ep.Net, Node: node, R: ptr(bestR / 2), C: ptr(bestC / 2)},
			{Op: "addC", Net: ep.Net, Node: parent, C: ptr(repIn)},
		},
	}, true
}

// trimLoad shrinks the endpoint's lumped load capacitance to 70% — a
// smaller receiving gate.
func (e *engine) trimLoad(ep timing.EndpointSlack) (Move, bool) {
	et, ok := e.sess.ViewNetTree(ep.Net)
	if !ok {
		return Move{}, false
	}
	out, ok := et.Lookup(ep.Output)
	if !ok {
		return Move{}, false
	}
	c := et.NodeCap(out)
	if c <= 0 {
		return Move{}, false
	}
	trimmed := 0.7 * c
	return Move{
		Kind: "trimLoad", Net: ep.Net,
		Desc: fmt.Sprintf("trim load at %s to %.4g", ep.Output, trimmed),
		Cost: trimCostBase + (c - trimmed),
		Edits: []timing.Edit{
			{Op: "setC", Net: ep.Net, Node: ep.Output, C: ptr(trimmed)},
		},
	}, true
}

// pruneStub finds the heaviest parasitic stub of the net — a subtree
// containing no designated output and no protected name — and proposes
// deleting it.
func (e *engine) pruneStub(net string) (Move, bool) {
	et, ok := e.sess.ViewNetTree(net)
	if !ok {
		return Move{}, false
	}
	// needed: every node on the root path of a designated output or a
	// protected name. Anything outside that set is parasitic.
	needed := make([]bool, et.Slots())
	needed[incr.Root] = true
	mark := func(id incr.NodeID) {
		for v := id; ; v = et.Parent(v) {
			if needed[v] {
				return
			}
			needed[v] = true
			if v == incr.Root {
				return
			}
		}
	}
	for _, o := range et.Outputs() {
		mark(o)
	}
	for _, name := range e.sess.ProtectedOutputs(net) {
		if id, ok := et.Lookup(name); ok {
			mark(id)
		}
	}
	best := incr.NodeID(-1)
	var bestCap float64
	for i := 1; i < et.Slots(); i++ {
		id := incr.NodeID(i)
		if et.Name(id) == "" || needed[id] { // dead slot or load-bearing
			continue
		}
		if !needed[et.Parent(id)] {
			continue // interior of a stub; its root is the candidate
		}
		if sc := et.SubtreeCap(id); sc > bestCap {
			best, bestCap = id, sc
		}
	}
	if best < 0 || bestCap <= 0 || et.TotalCap()-bestCap <= 0 {
		return Move{}, false
	}
	node := et.Name(best)
	return Move{
		Kind: "pruneStub", Net: net,
		Desc: fmt.Sprintf("prune stub %s (%.4g cap)", node, bestCap),
		Cost: pruneCost,
		Edits: []timing.Edit{
			{Op: "prune", Net: net, Node: node},
		},
	}, true
}

// frontier reduces the visited states to the non-dominated (cost, WNS) set:
// cost strictly ascending, WNS strictly ascending — every kept point buys
// slack no cheaper point reached.
func frontier(pts []ParetoPoint) []ParetoPoint {
	sorted := append([]ParetoPoint(nil), pts...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Cost != sorted[b].Cost {
			return sorted[a].Cost < sorted[b].Cost
		}
		return sorted[a].WNS > sorted[b].WNS
	})
	var out []ParetoPoint
	bestWNS := math.Inf(-1)
	for _, p := range sorted {
		if p.WNS > bestWNS {
			out = append(out, p)
			bestWNS = p.WNS
		}
	}
	return out
}

func ptr(v float64) *float64 { return &v }
