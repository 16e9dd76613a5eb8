// Package rcdelay is a Go implementation of Penfield & Rubinstein's
// "Signal Delay in RC Tree Networks" (1981): computationally simple upper
// and lower bounds on signal delay through MOS interconnect with fanout,
// computed from three characteristic times (TP, TDe, TRe) of the RC tree.
//
// The package is a façade over the internal implementation:
//
//   - build trees with NewBuilder (code), ParseNetlist (SPICE-like decks) or
//     ParseExpression (the paper's URC/WB/WC algebra, eq. 18);
//   - Analyze computes the characteristic times and bound evaluators for
//     every output;
//   - Bounds answers the paper's three headline questions: bound the delay
//     given a threshold (TMin/TMax), bound the voltage given a time
//     (VMin/VMax), or certify a deadline (OK);
//   - SimulateStep provides the exact step response of the same network via
//     eigendecomposition, for validation and for resolving Unknown verdicts;
//   - AnalyzeBatch and NewBatchEngine fan many trees across a worker pool
//     with content-hash memoization of repeated networks (cmd/rcserve is
//     the HTTP form of the same engine);
//   - NewEditTree wraps a tree in an incremental overlay that absorbs local
//     edits and re-certifies outputs in O(depth) instead of O(n) — the
//     engine behind opt's sizing loops and rcserve's editing sessions;
//   - ParseDesign and AnalyzeDesign lift the per-net bounds to chip level: a
//     multi-net Design (nets glued by gate stage edges) levelizes into a DAG,
//     per-net bounds fan across the batch pool, and interval arrival times
//     propagate to report per-endpoint slack, WNS/TNS and critical paths
//     (cmd/rcserve's /design endpoints and statime -design are the HTTP and
//     CLI forms);
//   - NewDesignSession keeps a design hot across ECO edits: every net mounts
//     an EditTree, and Apply re-times only the edited nets' downstream fanout
//     cones, returning updated slack and the invalidated critical paths
//     (POST /design/{id}/edit and statime -eco are the HTTP and CLI forms);
//   - CloseTiming runs the automated timing-closure engine: failing endpoints
//     are mined for candidate repairs (driver sizing, wire rebuffering, load
//     trimming, stub pruning), candidates are evaluated as what-if trials
//     on a reused session fork, and the best slack-gain-per-cost move
//     is accepted until WNS reaches zero or a budget runs out. The result is
//     a replayable ECO edit list, the closure trajectory, and the Pareto
//     frontier of (cost, WNS) states visited (POST /design/{id}/close and
//     statime -close are the HTTP and CLI forms);
//   - AnalyzeCorners lifts the analysis to process variation: slow/typ/fast
//     corner sweeps with per-net Gaussian derating run as vectorized passes
//     over the flat timing arena, reporting per-endpoint slack distributions,
//     corner-tagged WNS/TNS and criticality probability (POST
//     /design/{id}/corners and statime -corners are the HTTP and CLI forms).
//
// Element units are the caller's choice: ohms with farads give seconds,
// ohms with picofarads give picoseconds (the paper's §V convention).
package rcdelay

import (
	"context"
	"io"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/closure"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/mcd"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rctree"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Core re-exported types. These are aliases, so values flow freely between
// the façade and the internal packages.
type (
	// Tree is an immutable RC tree network.
	Tree = rctree.Tree
	// NodeID identifies a node within a Tree.
	NodeID = rctree.NodeID
	// Builder constructs trees incrementally.
	Builder = rctree.Builder
	// Times holds the characteristic times (TP, TD, TR, Ree) of one output.
	Times = rctree.Times
	// Bounds evaluates the Penfield–Rubinstein bounds for one output.
	Bounds = core.Bounds
	// Result pairs an output with its Times and Bounds.
	Result = core.Result
	// Verdict is the OK certification result (Passes/Unknown/Fails).
	Verdict = core.Verdict
	// DelayRow is one threshold row of a Figure 10-style delay table.
	DelayRow = core.DelayRow
	// VoltageRow is one time row of a Figure 10-style voltage table.
	VoltageRow = core.VoltageRow
	// CurvePoint samples the bound envelope for plotting.
	CurvePoint = core.CurvePoint
)

// Verdict values (Figure 9 of the paper).
const (
	Passes  = core.Passes
	Unknown = core.Unknown
	Fails   = core.Fails
)

// Root is the input node of every tree.
const Root = rctree.Root

// NewBuilder starts a new tree whose input node has the given name
// ("" defaults to "in").
func NewBuilder(inputName string) *Builder { return rctree.NewBuilder(inputName) }

// ParseNetlist reads a SPICE-like deck (R/C/U cards with .input/.output
// directives) and returns the tree it describes.
func ParseNetlist(src string) (*Tree, error) { return netlist.Parse(src) }

// WriteNetlist renders a tree as a deck that round-trips through
// ParseNetlist.
func WriteNetlist(t *Tree) string { return netlist.Write(t) }

// ParseExpression reads the paper's algebraic notation, e.g.
//
//	(URC 15 0) WC (URC 0 2) WC (WB (URC 8 0) WC URC 0 7) WC (URC 3 4) WC URC 0 9
//
// and returns the network as a tree plus the output node (the expression's
// port 2).
func ParseExpression(src string) (*Tree, NodeID, error) {
	e, err := algebra.Parse(src)
	if err != nil {
		return nil, 0, err
	}
	return algebra.ToTree(e)
}

// FormatExpression renders the subnetwork driving output e in the paper's
// notation — the inverse of ParseExpression up to value-preserving
// regrouping.
func FormatExpression(t *Tree, e NodeID) (string, error) {
	expr, err := algebra.FromTree(t, e)
	if err != nil {
		return "", err
	}
	return algebra.Format(expr), nil
}

// CharacteristicTimes computes TP, TDe, TRe and Ree for output e in one
// O(n) pass.
func CharacteristicTimes(t *Tree, e NodeID) (Times, error) {
	return t.CharacteristicTimes(e)
}

// NewBounds returns a bound evaluator for precomputed characteristic times.
func NewBounds(tm Times) (*Bounds, error) { return core.New(tm) }

// BoundsFor computes the bounds of output e directly from the tree.
func BoundsFor(t *Tree, e NodeID) (*Bounds, error) {
	tm, err := t.CharacteristicTimes(e)
	if err != nil {
		return nil, err
	}
	return core.New(tm)
}

// Analyze computes Times and Bounds for every designated output.
func Analyze(t *Tree) ([]Result, error) { return core.AnalyzeTree(t) }

// CriticalOutputs sorts analysis results by descending TMax at the given
// threshold — the slowest-certifiable output first.
func CriticalOutputs(results []Result, threshold float64) []Result {
	return core.CriticalOutputs(results, threshold)
}

// EditTree is a mutable overlay over a Tree that absorbs local edits
// (SetResistance, SetCapacitance, SetLine, ScaleDriver, Grow, Graft, Prune)
// in O(depth) and answers characteristic-time queries in O(depth) — the
// incremental engine behind opt's bisections and rcserve's session API.
// An EditTree is not safe for concurrent use; see the incr package docs.
type EditTree = incr.EditTree

// EdgeKind distinguishes lumped resistors from distributed RC lines when
// growing or grafting onto an EditTree.
type EdgeKind = rctree.EdgeKind

// Edge kinds for EditTree.Grow and EditTree.Graft.
const (
	EdgeResistor = rctree.EdgeResistor
	EdgeLine     = rctree.EdgeLine
)

// NewEditTree wraps t in an incremental-analysis overlay. The tree is
// copied; t stays immutable and may keep serving other readers. After local
// edits, re-certifying an output costs O(depth) instead of the O(n) full
// analysis — see BenchmarkIncrementalSweep for the measured gap.
func NewEditTree(t *Tree) *EditTree { return incr.New(t) }

// Batch-analysis types, re-exported from the internal engine.
type (
	// BatchJob is one unit of batch work: a tree plus the thresholds,
	// time points and deadline checks to evaluate on it.
	BatchJob = batch.Job
	// BatchResult answers one BatchJob, outputs in declaration order.
	BatchResult = batch.Result
	// BatchCheck is one deadline certification within a BatchJob.
	BatchCheck = batch.Check
	// BatchOptions configures a BatchEngine (worker count, cache size).
	BatchOptions = batch.Options
	// BatchEngine is a reusable worker pool with a shared memoization
	// cache; share one engine so callers benefit from each other's
	// cache entries.
	BatchEngine = batch.Engine
)

// NewBatchEngine returns a batch-analysis engine. The zero Options give
// GOMAXPROCS workers and the default cache size.
func NewBatchEngine(opt BatchOptions) *BatchEngine { return batch.New(opt) }

// Chip-level timing types, re-exported from the internal engine.
type (
	// Design is the multi-net form of a chip: named RC-tree nets plus stage
	// edges ("output X of net A drives the input of net B through a gate
	// with intrinsic delay d") and endpoint requirements.
	Design = netlist.Design
	// DesignNet is one named net of a Design.
	DesignNet = netlist.DesignNet
	// Stage is one gate edge of a Design.
	Stage = netlist.Stage
	// Require pins a required arrival time on one endpoint.
	Require = netlist.Require
	// DesignOptions configures AnalyzeDesign (threshold, default required
	// time, critical-path count, sequential mode, telemetry registry).
	DesignOptions = timing.Options
	// DesignReport is the chip-level analysis: per-endpoint arrival
	// intervals and slack, WNS/TNS, and the K most critical paths.
	DesignReport = timing.Report
	// EndpointSlack is one endpoint's record within a DesignReport.
	EndpointSlack = timing.EndpointSlack
	// TimingGraph is the levelized DAG form of a Design; build once with
	// NewTimingGraph and analyze repeatedly.
	TimingGraph = timing.Graph
	// ArrivalInterval is a closed [min, max] interval bracketing an arrival
	// time.
	ArrivalInterval = timing.Interval
	// DesignSession is the incremental re-timing engine: an EditTree per
	// edited net (mounted on its first edit), O(depth) ECO edits,
	// dirty-cone arrival re-propagation. Not safe for concurrent use — wrap
	// it in a mutex to share across goroutines.
	DesignSession = timing.Session
	// DesignEdit is one ECO operation on a design session, addressed by net
	// (and node) name.
	DesignEdit = timing.Edit
	// DesignApplyResult summarizes one DesignSession.Apply: dirty-cone
	// statistics, updated WNS/TNS and invalidated critical paths.
	DesignApplyResult = timing.ApplyResult
	// EcoReport is the before/after slack-delta view of one ECO edit list.
	EcoReport = timing.EcoReport
)

// ParseDesign reads a multi-net design deck (.net/.endnet sections plus
// .stage and .require cards) and returns the design it describes.
func ParseDesign(src string) (*Design, error) { return netlist.ParseDesign(src) }

// WriteDesign renders a design as a deck that round-trips through
// ParseDesign.
func WriteDesign(d *Design) string { return netlist.WriteDesign(d) }

// NewTimingGraph levelizes a design into its timing DAG, rejecting cyclic
// stage edges.
func NewTimingGraph(d *Design) (*TimingGraph, error) { return timing.NewGraph(d) }

// AnalyzeDesign computes chip-level slack for a multi-net design: every
// net's output bounds are computed in levelized order and interval arrival
// times (min of the paper's lower bounds, max of the upper bounds) propagate
// along the stage edges to every endpoint. The zero DesignOptions use
// threshold 0.5 and propagate over the design's flat arena: tree sweeps
// across GOMAXPROCS workers (DesignOptions.Sequential keeps them on the
// caller's goroutine), then one levelized arrival pass.
func AnalyzeDesign(ctx context.Context, d *Design, opt DesignOptions) (*DesignReport, error) {
	return timing.Analyze(ctx, d, opt)
}

// NewDesignSession runs the initial full analysis of a design and mounts the
// incremental re-timing session on it: every net becomes a mutable EditTree,
// and Apply absorbs ECO edits (setR/setC/addC/setLine/scaleDriver/grow/
// prune/addOutput/removeOutput, addressed net.node) by recomputing only the
// edited nets' bounds and re-propagating arrivals through their downstream
// fanout cones — BenchmarkDesignECO measures the gap to a full re-analysis.
// cmd/rcserve's POST /design/{id}/edit and statime -eco are the HTTP and CLI
// forms.
func NewDesignSession(ctx context.Context, d *Design, opt DesignOptions) (*DesignSession, error) {
	return timing.NewSession(ctx, d, opt)
}

// ParseEcoEdits reads a textual ECO edit list (one edit per line, SPICE
// value suffixes allowed) — the statime -eco file format.
func ParseEcoEdits(src string) ([]DesignEdit, error) { return timing.ParseEdits(src) }

// FormatEcoEdits renders edits back into the ECO line grammar. Edits read by
// ParseEcoEdits round-trip exactly; hand-assembled edits with missing values
// or unknown ops render as lines a reparse rejects, so a malformed list
// fails loudly instead of losing edits silently.
func FormatEcoEdits(edits []DesignEdit) string { return timing.FormatEdits(edits) }

// NewEcoReport joins a before and an after report of the same design into
// the slack-delta view (per-endpoint slack movement, WNS/TNS before vs
// after, dirty-cone statistics from the ApplyResult).
func NewEcoReport(before, after *DesignReport, res DesignApplyResult) *EcoReport {
	return timing.NewEcoReport(before, after, res)
}

// Durability types, re-exported from the internal WAL engine. A WALStore
// persists design sessions as snapshot decks plus per-design logs of
// accepted ECO edits (in the FormatEcoEdits grammar, fsynced per append);
// recovery parses the newest snapshot and replays the log tail through
// NewDesignSession + Apply, reproducing the live session's every bound to
// 1e-9 (the internal property test pins this). cmd/rcserve's -data-dir flag
// is the serving form.
type (
	// WALStore is a directory of per-design durability state.
	WALStore = wal.Store
	// WALLog is one design's open write-ahead log; Append logs accepted
	// edits, Rotate folds them into a fresh snapshot.
	WALLog = wal.Log
	// WALMeta carries the analysis options a recovery remounts with.
	WALMeta = wal.Meta
	// WALRecovered is a recovery's result: snapshot deck, replayable edit
	// tail, and how many torn trailing bytes a crash left behind.
	WALRecovered = wal.Recovered
)

// OpenWAL mounts (creating if needed) a durability directory.
func OpenWAL(dir string) (*WALStore, error) { return wal.Open(dir) }

// Timing-closure types, re-exported from the internal engine.
type (
	// ClosureOptions configures CloseTiming: move budget, cost ceiling,
	// endpoints mined per iteration, trial concurrency, and (via Timing)
	// the analysis options the session mounts with.
	ClosureOptions = closure.Options
	// ClosureReport is the outcome of one closure run: the accepted ECO
	// edit list, the move-by-move trajectory, and the Pareto frontier of
	// (cost, WNS) states visited.
	ClosureReport = closure.Report
	// ClosureMove is one accepted or candidate repair move.
	ClosureMove = closure.Move
	// ClosureTrajectoryPoint is one accepted move plus the design state
	// after it.
	ClosureTrajectoryPoint = closure.TrajectoryPoint
	// ClosureParetoPoint is one non-dominated (cost, WNS) state.
	ClosureParetoPoint = closure.ParetoPoint
	// ClosureProgress is one accepted move as delivered to
	// ClosureOptions.Progress — the event rcserve's SSE stream and statime's
	// -progress flag forward.
	ClosureProgress = closure.ProgressEvent
)

// Telemetry types, re-exported from the internal obs package.
type (
	// MetricsRegistry is the zero-dependency metrics registry (counters,
	// gauges, fixed-bucket histograms) every engine layer can report into;
	// pass one via DesignOptions.Obs, ClosureOptions.Obs or BatchOptions.Obs.
	// A nil registry disables telemetry at the cost of a pointer test.
	MetricsRegistry = obs.Registry
	// MetricsHistogram is one fixed-bucket histogram series with
	// p50/p95/p99 snapshots.
	MetricsHistogram = obs.Histogram
)

// NewMetricsRegistry returns an empty metrics registry. Write it out in
// Prometheus text exposition format with its WritePrometheus method —
// cmd/rcserve's GET /metrics is that call behind HTTP.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Tracing types, re-exported from the internal trace package. A Tracer mints
// hierarchical request traces (every engine layer attaches its phase spans
// through the context) and retains completed ones in a flight recorder;
// cmd/rcserve's middleware and /debug/traces endpoints, and statime's -trace
// flag, are the HTTP and CLI forms.
type (
	// Tracer mints traces and retains completed ones. All methods on a nil
	// *Tracer are no-ops, so tracing is disabled by leaving it nil.
	Tracer = trace.Tracer
	// TracerOptions sizes the tracer's flight recorder (recent/slow ring
	// capacities, slow-pin threshold, per-trace span cap).
	TracerOptions = trace.Options
	// TraceSpan is one live timed operation; children attach via
	// StartTraceSpan. All methods on a nil *TraceSpan are no-ops.
	TraceSpan = trace.Span
	// RecordedTrace is one completed trace as retained by the recorder.
	RecordedTrace = trace.Trace
)

// NewTracer returns a tracer with its flight recorder sized by opt (the zero
// value selects the defaults).
func NewTracer(opt TracerOptions) *Tracer { return trace.New(opt) }

// StartTraceSpan opens a child of ctx's active trace span. When ctx carries
// no span it returns (ctx, nil) after a single context lookup — the same
// pinned-cheap disabled path every engine layer rides.
func StartTraceSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return trace.StartSpan(ctx, name)
}

// WriteChromeTrace renders completed traces as Chrome trace-event JSON, the
// format chrome://tracing and Perfetto load directly (statime -trace writes
// one of these files per run).
func WriteChromeTrace(w io.Writer, traces []*RecordedTrace) error {
	return trace.WriteChrome(w, traces)
}

// CloseTiming runs automated timing closure on a design with negative
// slack: it mounts an incremental re-timing session (opt.Timing), generates
// candidate repair moves on the failing endpoints' critical cones — driver
// upscaling and opt-bisected driver sizing, wire rebuffering via
// setLine+addC, load trimming via setC, parasitic-stub pruning — evaluates
// the candidates one after another as what-if trials on a session fork that
// is reverted after each, and accepts the best slack-gain-per-cost move
// until WNS >= 0, the move budget, or the cost ceiling is reached. The
// accepted edit list replays through ParseEcoEdits/NewDesignSession (or
// statime -eco) to reproduce the reported final WNS/TNS; the trajectory and
// Pareto frontier expose the cost/benefit curve behind the greedy path. The
// input design is never mutated.
//
// The accepted move sequence is deterministic: the argmax tie-breaks on
// candidate order, and a reverted fork times each trial exactly as a fresh
// fork would.
func CloseTiming(ctx context.Context, d *Design, opt ClosureOptions) (*ClosureReport, error) {
	return closure.CloseDesign(ctx, d, opt)
}

// CloseSession runs the same closure loop against an existing design
// session (rcserve's POST /design/{id}/close form). The session is mutated:
// accepted moves stay applied, so on return it sits at the report's final
// state.
func CloseSession(ctx context.Context, sess *DesignSession, opt ClosureOptions) (*ClosureReport, error) {
	return closure.Close(ctx, sess, opt)
}

// ForkDesignSession returns an independent what-if copy of a session in
// O(nets): EditTrees and arrival maps are shared copy-on-write, so trials
// are cheap and forks of the same parent may Apply concurrently with each
// other (each fork on its own goroutine).
func ForkDesignSession(sess *DesignSession) *DesignSession { return sess.Fork() }

// Variation-analysis types, re-exported from the internal mcd engine.
type (
	// Corner is one global process point: every resistance in the design
	// scales by RScale, every capacitance by CScale.
	Corner = mcd.Corner
	// CornerVariation is the per-net Gaussian derating applied on top of
	// each corner (relative 1-sigma spreads; zero disables the draws).
	CornerVariation = mcd.Variation
	// CornerOptions configures AnalyzeCorners (corner list, variation,
	// sample count, seed, threshold, default required time, telemetry).
	CornerOptions = mcd.Options
	// CornerDist summarizes one sampled scalar: mean/std/min/max plus
	// P50/P95/P99 under the shared internal/stats quantile convention.
	CornerDist = mcd.Dist
	// CornerEndpoint is one endpoint's arrival and slack distributions at
	// one corner, with its criticality probability.
	CornerEndpoint = mcd.EndpointDist
	// CornerResult is the sweep of one corner: nominal and sampled WNS/TNS
	// plus the per-endpoint distributions.
	CornerResult = mcd.CornerResult
	// CornerReport is the full multi-corner variation analysis of a design,
	// with Summary/WriteCSV/WriteJSON render methods.
	CornerReport = mcd.Report
)

// DefaultCorners is the classic three-point sweep: slow (+15% R and C),
// typical, fast (−15%).
func DefaultCorners() []Corner { return mcd.DefaultCorners() }

// AnalyzeCorners runs the multi-corner Monte Carlo variation analysis of a
// design: each corner's global R/C scales, compounded with per-net Gaussian
// factors drawn once per sample and shared across corners, scale each net's
// nominal delays by one R·C factor: the trees are swept once, and every
// corner and sample is a levelized arrival pass over the scaled delays — no
// per-sample tree sweep or rebuild. The report carries,
// per corner, nominal and sampled WNS/TNS, per-endpoint arrival and slack
// distributions, and each endpoint's criticality (the fraction of samples in
// which it is the WNS endpoint). The sweep runs min(GOMAXPROCS, samples)
// workers, and results are bit-identical for a given seed at any
// GOMAXPROCS. cmd/rcserve's POST /design/{id}/corners and statime -corners
// are the HTTP and CLI forms.
func AnalyzeCorners(ctx context.Context, d *Design, opt CornerOptions) (*CornerReport, error) {
	return mcd.Analyze(ctx, d, opt)
}

// DesignCorners runs the same variation analysis against a prebuilt
// TimingGraph, so repeated sweeps of one design (different seeds, sample
// counts or corner lists) skip re-levelization. name labels the report.
func DesignCorners(ctx context.Context, g *TimingGraph, name string, opt CornerOptions) (*CornerReport, error) {
	return mcd.AnalyzeGraph(ctx, g, name, opt)
}

// ScaleDesign returns a deep copy of a design with every net's element
// values scaled: net i's resistances by rFactors[i], capacitances by
// cFactors[i] (nil means all ones). Stage delays and required times are
// unscaled — this is the explicit-netlist form of what AnalyzeCorners and
// the corner-aware closure derive from one nominal sweep, and the reference
// their tests check against.
func ScaleDesign(d *Design, rFactors, cFactors []float64) (*Design, error) {
	return mcd.ScaleDesign(d, rFactors, cFactors)
}

// AnalyzeBatch analyzes every job on a one-shot engine with default
// options: the jobs fan out across GOMAXPROCS workers, structurally
// identical trees share one characteristic-time computation, and
// results[i] always answers jobs[i]. Long-lived callers should construct
// a NewBatchEngine once and reuse it so the memoization cache persists
// across calls.
func AnalyzeBatch(ctx context.Context, jobs []BatchJob) []BatchResult {
	return batch.New(BatchOptions{}).Run(ctx, jobs)
}

// StepSim wraps the exact simulator for a tree: distributed lines are
// discretized, the nodal system diagonalized once, and responses queried per
// original output node.
type StepSim struct {
	resp    *sim.Response
	circuit *sim.Circuit
	mapping map[NodeID]NodeID
}

// SimulateStep builds the exact unit-step solver for the tree. segments
// controls the pi-ladder discretization of each distributed line (16 is
// plenty for plotting; error falls as 1/segments²).
func SimulateStep(t *Tree, segments int) (*StepSim, error) {
	lumped, mapping, err := sim.Discretize(t, segments)
	if err != nil {
		return nil, err
	}
	ckt, err := sim.NewCircuit(lumped)
	if err != nil {
		return nil, err
	}
	resp, err := ckt.EigenResponse()
	if err != nil {
		return nil, err
	}
	return &StepSim{resp: resp, circuit: ckt, mapping: mapping}, nil
}

// Voltage returns the exact response of (original) node e at time t.
func (s *StepSim) Voltage(e NodeID, t float64) (float64, error) {
	i, err := s.circuit.Index(s.mapping[e])
	if err != nil {
		return 0, err
	}
	return s.resp.Voltage(i, t), nil
}

// CrossingTime returns the exact time node e reaches threshold v.
func (s *StepSim) CrossingTime(e NodeID, v float64) (float64, error) {
	i, err := s.circuit.Index(s.mapping[e])
	if err != nil {
		return 0, err
	}
	return s.resp.CrossingTime(i, v, 1e-12), nil
}

// Response exposes the underlying modal response for advanced use (e.g. the
// waveform package's superposition).
func (s *StepSim) Response() *sim.Response { return s.resp }

// Index maps an original tree node to the simulator's unknown index.
func (s *StepSim) Index(e NodeID) (int, error) {
	return s.circuit.Index(s.mapping[e])
}
