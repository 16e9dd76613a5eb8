package timing

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rctree"
	"repro/internal/trace"
)

// Interval is a closed time interval [Min, Max] bracketing an arrival.
type Interval struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Contains reports whether t lies in the interval (inclusive).
func (iv Interval) Contains(t float64) bool { return iv.Min <= t && t <= iv.Max }

// add shifts the interval by a scalar delay.
func (iv Interval) add(d float64) Interval { return Interval{iv.Min + d, iv.Max + d} }

// plus adds two intervals end to end.
func (iv Interval) plus(o Interval) Interval { return Interval{iv.Min + o.Min, iv.Max + o.Max} }

// hull widens the interval to cover o (min of mins, max of maxes).
func (iv Interval) hull(o Interval) Interval {
	return Interval{math.Min(iv.Min, o.Min), math.Max(iv.Max, o.Max)}
}

// Options configures an analysis. The zero value uses threshold 0.5, no
// default required time, 5 critical paths, and tree sweeps across
// GOMAXPROCS workers followed by one DAG arrival pass.
type Options struct {
	// Threshold is the receiving gates' switching threshold as a fraction of
	// the step (0 means 0.5).
	Threshold float64
	// Required is the default required arrival time applied to endpoints
	// without an explicit .require card; <= 0 leaves them unconstrained.
	Required float64
	// K is how many critical paths to backtrack (0 means 5; negative means
	// none).
	K int
	// Sequential sweeps each net's tree one at a time on the caller's
	// goroutine.
	Sequential bool
	// Obs receives engine-phase telemetry (graph/arena build spans,
	// propagation timings, dirty-cone sweep sizes). Nil — the default —
	// disables it at the cost of one pointer test per phase.
	Obs *obs.Registry
}

// faninEdge is one resolved stage edge entering a net.
type faninEdge struct {
	driver int     // index of the driving net
	output string  // designated output of the driver the gate taps
	delay  float64 // gate intrinsic delay
}

// fanoutEdge is one resolved stage edge leaving a net; output names the
// designated output the downstream gate taps, so incremental propagation can
// skip fanouts whose tapped output did not move.
type fanoutEdge struct {
	to     int
	output string
}

// gnode is one net in the timing graph.
type gnode struct {
	name   string
	tree   *rctree.Tree
	fanin  []faninEdge
	fanout []fanoutEdge // driven nets (one entry per stage edge)
	level  int
	// drives marks which outputs feed at least one stage edge; outputs not
	// in the set are timing endpoints.
	drives map[string]bool
	// required holds the net's explicit .require times by output name (nil
	// when the net has none).
	required map[string]float64
}

// Graph is a levelized timing DAG built from a design. Build once, analyze
// many times (e.g. under different thresholds); Graphs are immutable after
// NewGraph and safe for concurrent Analyze calls.
type Graph struct {
	design *netlist.Design
	nodes  []gnode
	index  map[string]int // net name -> node index
	levels [][]int        // net indices per level, each level sorted ascending
	// The flat arena core is built lazily on first use and shared by every
	// analysis and session mounted on this graph (it is immutable).
	arenaOnce sync.Once
	arenaVal  *designArena
}

// arena returns the graph's flat compute core, building it on first use.
func (g *Graph) arena() *designArena {
	return g.arenaWith(context.Background(), nil)
}

// arenaWith is arena with telemetry: the build (which happens at most once
// per graph) records a timing_arena_build_seconds histogram on reg and a
// timing_arena_build trace span under ctx when it is the call that actually
// constructs the core.
func (g *Graph) arenaWith(ctx context.Context, reg *obs.Registry) *designArena {
	g.arenaOnce.Do(func() {
		_, op := trace.StartOp(ctx, reg, "timing_arena_build")
		g.arenaVal = newDesignArena(g)
		op.End()
	})
	return g.arenaVal
}

// NewGraph resolves a design into a levelized DAG. Stage edges must form no
// cycle: every net's level is one past its deepest driver.
func NewGraph(d *netlist.Design) (*Graph, error) {
	if d == nil || len(d.Nets) == 0 {
		return nil, fmt.Errorf("timing: design has no nets")
	}
	index := make(map[string]int, len(d.Nets))
	g := &Graph{design: d, nodes: make([]gnode, len(d.Nets)), index: index}
	for i, n := range d.Nets {
		index[n.Name] = i
		g.nodes[i] = gnode{name: n.Name, tree: n.Tree, drives: map[string]bool{}}
	}
	for _, s := range d.Stages {
		from, ok := index[s.FromNet]
		if !ok {
			return nil, fmt.Errorf("timing: stage references unknown net %q", s.FromNet)
		}
		to, ok := index[s.ToNet]
		if !ok {
			return nil, fmt.Errorf("timing: stage references unknown net %q", s.ToNet)
		}
		// ParseDesign validates this too, but designs assembled in code reach
		// here directly, and a dangling output name would otherwise read as a
		// silent {0,0} arrival — an unsound report rather than an error.
		if _, ok := g.nodes[from].tree.LookupOutput(s.FromOutput); !ok {
			return nil, fmt.Errorf("timing: stage taps %q, which is not a designated output of net %q", s.FromOutput, s.FromNet)
		}
		g.nodes[to].fanin = append(g.nodes[to].fanin, faninEdge{driver: from, output: s.FromOutput, delay: s.Delay})
		g.nodes[from].fanout = append(g.nodes[from].fanout, fanoutEdge{to: to, output: s.FromOutput})
		g.nodes[from].drives[s.FromOutput] = true
	}
	// Kahn levelization: a net is placeable once every fanin edge has been
	// consumed; its level is one past the deepest driver. Each fanin is put
	// in canonical stage order (netlist.WriteDesign's) on the way, so a
	// worst-fanin tie breaks the same way whatever the order of the .stage
	// cards: a design re-read from its canonical deck names the same paths.
	remaining := make([]int, len(g.nodes))
	var queue []int
	for i := range g.nodes {
		slices.SortStableFunc(g.nodes[i].fanin, func(a, b faninEdge) int {
			return cmp.Or(strings.Compare(g.nodes[a.driver].name, g.nodes[b.driver].name), strings.Compare(a.output, b.output))
		})
		remaining[i] = len(g.nodes[i].fanin)
		if remaining[i] == 0 {
			queue = append(queue, i)
		}
	}
	placed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		placed++
		for g.nodes[i].level >= len(g.levels) {
			g.levels = append(g.levels, nil)
		}
		g.levels[g.nodes[i].level] = append(g.levels[g.nodes[i].level], i)
		for _, e := range g.nodes[i].fanout {
			j := e.to
			if l := g.nodes[i].level + 1; l > g.nodes[j].level {
				g.nodes[j].level = l
			}
			remaining[j]--
			if remaining[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if placed < len(g.nodes) {
		for i := range g.nodes {
			if remaining[i] > 0 {
				return nil, fmt.Errorf("timing: stage edges form a cycle through net %q", g.nodes[i].name)
			}
		}
	}
	for _, level := range g.levels {
		sort.Ints(level)
	}
	for _, r := range d.Requires {
		i, ok := index[r.Net]
		if !ok {
			continue
		}
		if g.nodes[i].required == nil {
			g.nodes[i].required = map[string]float64{}
		}
		g.nodes[i].required[r.Output] = r.Time
	}
	return g, nil
}

// endpointRequired classifies output name of net i, the one endpoint rule
// every report, slack aggregate and variation view shares: an explicit
// .require card wins; otherwise an output that drives a stage is interior
// (ok false); otherwise defRequired applies when positive, and the endpoint
// is unconstrained (req +Inf) when not.
func (g *Graph) endpointRequired(i int, name string, defRequired float64) (req float64, ok bool) {
	node := &g.nodes[i]
	if req, ok := node.required[name]; ok {
		return req, true
	}
	if node.drives[name] {
		return 0, false
	}
	if defRequired > 0 {
		return defRequired, true
	}
	return math.Inf(1), true
}

// protects reports whether net i's output name is tapped by a stage edge or
// pinned by a .require card: pruning or undesignating it would orphan the
// graph structure, so a session refuses those edits.
func (g *Graph) protects(i int, name string) bool {
	node := &g.nodes[i]
	_, pinned := node.required[name]
	return pinned || node.drives[name]
}

// protectedOutputs lists net i's protected outputs in sorted order.
func (g *Graph) protectedOutputs(i int) []string {
	node := &g.nodes[i]
	names := slices.Collect(maps.Keys(node.drives))
	for name := range node.required {
		if !node.drives[name] {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// Nets reports the number of nets in the graph.
func (g *Graph) Nets() int { return len(g.nodes) }

// Levels reports the number of pipeline levels (longest net chain).
func (g *Graph) Levels() int { return len(g.levels) }

// netTiming is the per-net working state of one analysis. The three output
// slices are aligned and in designation order: names[j]'s delay interval is
// delay[j] and its arrival out[j]. After a full sweep they are windows into
// per-slot arrays (cut with a full slice expression, so no append can spill
// into the next net's window); a Session replaces an edited net's slices
// wholesale.
type netTiming struct {
	input Interval   // arrival interval at the net's driven input
	names []string   // designated output names
	delay []Interval // [TMin, TMax] of each output at the threshold
	out   []Interval // arrival interval at each output
	// worst is the fanin edge realizing input.Max, the critical-path
	// predecessor (-1 for primary inputs).
	worst int
}

// output returns the position of the designated output name, or -1. Nets
// designate a handful of outputs, so a scan beats hashing.
func (nt *netTiming) output(name string) int {
	for j, n := range nt.names {
		if n == name {
			return j
		}
	}
	return -1
}

// resolved is the fully-defaulted execution plan of one analysis.
type resolved struct {
	th      float64
	k       int
	workers int // 1 means sequential
	obs     *obs.Registry
}

// resolveThreshold applies the threshold default (0 means 0.5) and rejects
// anything outside (0,1). The check is written so that NaN fails it too.
func resolveThreshold(th float64) (float64, error) {
	if th == 0 {
		return 0.5, nil
	}
	if !(th > 0 && th < 1) {
		return 0, fmt.Errorf("timing: threshold %g outside (0,1)", th)
	}
	return th, nil
}

// resolve applies the Options defaults: threshold 0.5, 5 critical paths, and
// tree sweeps across GOMAXPROCS workers unless Sequential.
func (opt Options) resolve() (resolved, error) {
	th, err := resolveThreshold(opt.Threshold)
	if err != nil {
		return resolved{}, err
	}
	r := resolved{th: th, k: opt.K, workers: runtime.GOMAXPROCS(0), obs: opt.Obs}
	if r.k == 0 {
		r.k = 5
	}
	if opt.Sequential {
		r.workers = 1
	}
	return r, nil
}

// gatherInput recomputes net i's input arrival interval and worst fanin edge
// from its drivers' (already final) output arrivals. Primary-input nets get
// the degenerate [0, 0] interval and worst -1. A tapped output is always
// found: NewGraph checks every stage's tap, and a Session refuses to prune
// or undesignate one.
func (g *Graph) gatherInput(state []netTiming, i int) (Interval, int) {
	var in Interval
	worst := -1
	for ei, e := range g.nodes[i].fanin {
		drv := &state[e.driver]
		cand := drv.out[drv.output(e.output)].add(e.delay)
		if ei == 0 {
			in, worst = cand, 0
			continue
		}
		if cand.Max > in.Max {
			worst = ei
		}
		in = in.hull(cand)
	}
	return in, worst
}

// Analyze propagates interval arrivals over the graph's flat arena and
// assembles the chip report; see the package comment for the model.
func (g *Graph) Analyze(ctx context.Context, opt Options) (*Report, error) {
	r, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	state, err := g.computeState(ctx, r)
	if err != nil {
		return nil, err
	}
	return g.report(state, r.th, r.k, opt.Required), nil
}

// computeState runs the full sweep and returns the complete per-net working
// state a Session continues from. The propagation happens entirely in the
// arena's flat arrays; the per-net slices are cut from them once at the end.
func (g *Graph) computeState(ctx context.Context, r resolved) ([]netTiming, error) {
	da := g.arenaWith(ctx, r.obs)
	st := da.newState()
	sched := "parallel"
	if r.workers <= 1 {
		sched = "sequential"
	}
	pctx, op := trace.StartOp(ctx, r.obs, "timing_propagate", "sched", sched)
	err := da.propagate(pctx, st, r.th, r.workers, nil)
	op.SetError(err)
	op.End()
	if err != nil {
		return nil, err
	}
	return da.netTimings(st), nil
}

// report assembles endpoint slacks, WNS/TNS and the K critical paths.
func (g *Graph) report(state []netTiming, th float64, k int, defRequired float64) *Report {
	wns, tns := math.Inf(1), 0.0
	var eps []EndpointSlack
	for i := range g.nodes {
		neg := 0.0
		st := &state[i]
		for j, name := range st.names {
			req, ok := g.endpointRequired(i, name, defRequired)
			if !ok {
				continue
			}
			ep := g.endpoint(i, name, st.out[j], req)
			if ep.Slack < wns {
				wns = ep.Slack
			}
			if ep.Slack < 0 {
				neg += ep.Slack
			}
			eps = append(eps, ep)
		}
		// Per net first, then across nets: the fold Session.Summary runs over
		// its per-net aggregates, so both TNS forms agree to the bit.
		tns += neg
	}
	return g.assemble(state, th, k, sortEndpoints(eps), wns, tns)
}

// assemble builds the report of state from its endpoints in report order
// and its WNS/TNS, backtracking the k most critical paths.
func (g *Graph) assemble(state []netTiming, th float64, k int, eps []EndpointSlack, wns, tns float64) *Report {
	rep := &Report{
		Design:    g.design.Name,
		Threshold: th,
		Nets:      len(g.nodes),
		Stages:    len(g.design.Stages),
		Levels:    len(g.levels),
		Endpoints: eps,
		WNS:       wns,
		TNS:       tns,
	}
	for i := 0; i < len(eps) && i < k; i++ {
		rep.Paths = append(rep.Paths, g.backtrack(state, eps[i]))
	}
	return rep
}

// endpoint builds the slack record of net i's output name at arrival arr
// under required time req (+Inf: unconstrained).
func (g *Graph) endpoint(i int, name string, arr Interval, req float64) EndpointSlack {
	ep := EndpointSlack{
		Net:      g.nodes[i].name,
		Output:   name,
		Arrival:  arr,
		Required: req,
		Slack:    math.Inf(1),
		Verdict:  core.Passes,
		net:      i,
	}
	if math.IsInf(req, 1) {
		return ep
	}
	ep.Slack = req - arr.Max
	switch {
	case arr.Max <= req:
		ep.Verdict = core.Passes
	case arr.Min > req:
		ep.Verdict = core.Fails
	default:
		ep.Verdict = core.Unknown
	}
	return ep
}

// sortEndpoints returns eps in report order (cmpEndpoints). It sorts flat
// (slack, arrival, index) keys rather than the large structs, and reads the
// names only on a tie.
func sortEndpoints(eps []EndpointSlack) []EndpointSlack {
	type key struct {
		slack, arr float64
		idx        int
	}
	keys := make([]key, len(eps))
	for i := range eps {
		keys[i] = key{eps[i].Slack, eps[i].Arrival.Max, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmpRank(a.slack, a.arr, b.slack, b.arr); c != 0 {
			return c
		}
		return cmpNames(&eps[a.idx], &eps[b.idx])
	})
	sorted := make([]EndpointSlack, len(eps))
	for i, kk := range keys {
		sorted[i] = eps[kk.idx]
	}
	return sorted
}

// cmpEndpoints is the report order: constrained endpoints by ascending
// slack, then unconstrained ones by descending latest arrival, with net and
// output names breaking exact ties. Names are unique per endpoint, so the
// order is total for non-NaN keys: any sort or merge yields the same
// sequence.
func cmpEndpoints(a, b *EndpointSlack) int {
	if c := cmpRank(a.Slack, a.Arrival.Max, b.Slack, b.Arrival.Max); c != 0 {
		return c
	}
	return cmpNames(a, b)
}

// cmpRank compares the numeric keys of cmpEndpoints: slack ascending, then
// latest arrival descending.
func cmpRank(aSlack, aArr, bSlack, bArr float64) int {
	switch {
	case aSlack < bSlack:
		return -1
	case aSlack > bSlack:
		return 1
	case aArr > bArr:
		return -1
	case aArr < bArr:
		return 1
	}
	return 0
}

// cmpNames breaks a cmpRank tie by net, then output name.
func cmpNames(a, b *EndpointSlack) int {
	if c := strings.Compare(a.Net, b.Net); c != 0 {
		return c
	}
	return strings.Compare(a.Output, b.Output)
}

// backtrack reconstructs the critical path ending at ep: from the endpoint
// net, follow each net's worst-arrival fanin edge back to a primary input,
// then emit hops root-first.
func (g *Graph) backtrack(state []netTiming, ep EndpointSlack) Path {
	type rev struct {
		net    int
		output string  // output the path leaves the net through
		delay  float64 // gate delay to the successor net
	}
	var chain []rev
	cur, out, delay := ep.net, ep.Output, 0.0
	for {
		chain = append(chain, rev{cur, out, delay})
		w := state[cur].worst
		if w < 0 {
			break
		}
		e := g.nodes[cur].fanin[w]
		cur, out, delay = e.driver, e.output, e.delay
	}
	p := Path{Endpoint: ep.Net + "/" + ep.Output, Slack: ep.Slack}
	for i := len(chain) - 1; i >= 0; i-- {
		h := chain[i]
		st := &state[h.net]
		j := st.output(h.output) // the endpoint or a tapped output: always found
		p.Hops = append(p.Hops, PathHop{
			Net:           g.nodes[h.net].name,
			Output:        h.output,
			InputArrival:  st.input,
			NetDelay:      st.delay[j],
			OutputArrival: st.out[j],
			StageDelay:    h.delay,
		})
	}
	return p
}

// Analyze is the one-call form: build the graph and analyze it. The graph
// build (stage resolution plus Kahn levelization) gets its own span on
// opt.Obs, separate from the propagation spans Analyze records.
func Analyze(ctx context.Context, d *netlist.Design, opt Options) (*Report, error) {
	_, op := trace.StartOp(ctx, opt.Obs, "timing_levelize")
	g, err := NewGraph(d)
	op.SetError(err)
	op.End()
	if err != nil {
		return nil, err
	}
	return g.Analyze(ctx, opt)
}
