// Package timing turns per-net Penfield–Rubinstein bounds into chip-level
// slack: a static timing engine over multi-net designs.
//
// A netlist.Design is a set of named RC-tree nets glued by stage edges
// ("output X of net A drives the input of net B through a gate with
// intrinsic delay d"). The engine builds the DAG of nets, levelizes it, and
// computes every net's output delay interval [TMin, TMax] at the switching
// threshold — the paper's bounds, from one sweep of the net's tree, with
// independent nets timed concurrently. Interval arrival times then
// propagate along the stage edges:
//
//   - a primary-input net (no fanin) is driven by the ideal step at t = 0,
//     so its input arrival is the degenerate interval [0, 0];
//   - a net's output arrival is its input arrival plus the output's delay
//     interval — the lower edges add (earliest possible crossing), and the
//     upper edges add (latest certifiable crossing);
//   - a stage edge shifts the driver's output arrival by the gate's
//     intrinsic delay; a multi-fanin net takes the interval hull (min of
//     mins, max of maxes) over its drivers, the standard early/late STA
//     convention.
//
// Because every per-net interval provably contains the true crossing time
// (the paper's Theorems), every propagated arrival interval provably
// contains the true cascade arrival under the staged step model — the
// cross-check tests verify this against the exact eigendecomposition
// simulator stage by stage.
//
// The report answers the designer's chip-level questions: per-endpoint
// arrival intervals and slack against required times, worst negative slack
// (WNS), total negative slack (TNS), and the K most critical paths,
// backtracked through the worst-arrival fanin edge of each net.
//
// Analyze is the one-call form; NewGraph + Graph.Analyze amortizes graph
// construction across repeated analyses. Options.Sequential disables the
// parallel fan-out (BenchmarkDesignSlack measures the gap).
//
// # The flat-arena core
//
// Analysis runs on a flat SoA/CSR arena built once per Graph: every net's
// RC tree flattened into one concatenated node arena with one contiguous
// slice per field, and every variable-length relation as a CSR index range:
//
//	nodes   net 0 nodes | net 1 nodes | ...     nodeOff CSR per net
//	        parent/kind/edgeR/edgeC/nodeC       one flat slice per field
//	slots   net 0 outputs | net 1 outputs | ... outOff CSR per net
//	fanin   finOff CSR; driver's global output slot, stage delay
//	fanout  foutOff CSR; successor net per stage edge
//	order   levelized net order with levelOff per level — computed once
//
// Output-name lookups are resolved to integer slots at build, so propagation
// touches nothing but flat float64/int32 slices; the steady-state sequential
// sweep allocates nothing per pass (an AllocsPerRun test pins this). Each
// net is timed by one rctree.TimesFlatAll sweep over its tree for all of its
// output slots: TP and the Rkk column are output independent (the paper's
// eq. 5) and are accumulated once, and only the common-path resistance Rke
// is carried per output. The results are bit-identical to one sweep per
// output, and the slots are then validated, bounded and written in slot
// order, so the first failing output still names the error. After the
// sweep, each net's working state is a window into per-slot delay and
// arrival arrays: its output names, delays and arrivals as aligned slices
// in designation order. The differential harness pins the arena and the
// Session to a test-only oracle (per net, package core's analysis of the
// pointer-linked tree) to 1e-9 on every quantity the report carries, fresh
// and across randomized ECO edit sequences.
//
// A full propagation runs in two phases. A net's delays depend only on its
// own RC tree, so the tree sweeps have no order: up to GOMAXPROCS workers
// take nets in levelized order from one atomic cursor, and a failure returns
// the earliest failing net's error in that order, as the sequential sweep
// would. Nets couple only through arrivals, so one DAG pass then walks the
// levels on the caller's goroutine, hulling each net's fanin and adding its
// delays; VarArena.Propagate runs the same pass over λ-scaled nominal
// delays. Results are bit-identical across worker counts.
//
// # Incremental re-timing (ECO sessions)
//
// A Session keeps the design hot across edits: a net's first edit mounts an
// incr EditTree on the graph's tree (an unedited net is read straight from
// the graph), and Apply absorbs ECO operations (setR, setC, addC, setLine,
// scaleDriver, grow, prune, addOutput, removeOutput — addressed "net.node")
// in O(depth) per edited net. Re-timing is a dirty-cone sweep: only the
// edited nets re-derive their bound intervals, and arrivals re-propagate
// level by level through their downstream fanout, early-exiting wherever an
// input interval comes back unchanged — a mid-cone settle stops the wave.
// Apply answers with the updated WNS/TNS (folded from per-net aggregates in
// O(nets), bit-identical to the report's), the dirty-cone statistics, and
// which previously reported critical paths the edit invalidated; Report
// rebuilds the full endpoint table and paths lazily, while WorstEndpoints
// ranks the k worst endpoints from the same aggregates, expanding only the
// nets that can hold them. A live session's slack reads and snapshot decks
// cost what changed too: AppendReportJSON merges the re-derived endpoints
// of the nets an Apply changed into the last read's order and formats only
// their numbers, and AppendDeck materializes only the nets whose EditTree
// changed (an unmounted net renders the graph's tree); both are
// byte-identical to the full renders, and forks never carry their state.
// Fork takes a copy-on-write what-if copy in O(nets), Revert returns a fork
// to its parent's state in O(nets it touched), and ForkInto re-forks a fork
// in place after its parent moved on, so a trial loop keeps one fork and
// the trees it cloned across trials and rounds. Scaled(λ) is a corner view:
// every net delay λ times the session's, since the bounds are degree-1
// homogeneous in R·C. A view takes no edits; after its source (or a fork of
// it) applies some, Follow installs λ times the source's new delays for the
// edited nets and runs the same dirty-cone sweep, so a view never mounts,
// clones or queries a tree. The property tests pin Session equivalence to a
// from-scratch Analyze of the materialized design to 1e-9 over randomized
// edit sequences, and BenchmarkDesignECO measures the dirty-cone speedup
// against a full re-analysis.
//
// ParseEdits/FormatEdits define the textual ECO edit-list grammar
// (statime -eco replays such files), and NewEcoReport joins a before/after
// report pair into the slack-delta view.
package timing
