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
// Parallel propagation is work-stealing across GOMAXPROCS workers, with no
// level barriers: each net carries an atomic remaining-fanin counter, a
// finished net pushes the successors that just became ready onto its own
// deque (popped LIFO, chasing the fanout cone depth-first for locality),
// and idle workers steal FIFO. Results are bit-identical across worker
// counts — each net's computation is a pure function of its drivers' final
// state.
//
// # Incremental re-timing (ECO sessions)
//
// A Session keeps the design hot across edits: every net mounts an incr
// EditTree, and Apply absorbs ECO operations (setR, setC, addC, setLine,
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
// nets that can hold them. The property tests pin Session equivalence to a
// from-scratch Analyze of the materialized design to 1e-9 over randomized
// edit sequences, and BenchmarkDesignECO measures the dirty-cone speedup
// against a full re-analysis.
//
// ParseEdits/FormatEdits define the textual ECO edit-list grammar
// (statime -eco replays such files), and NewEcoReport joins a before/after
// report pair into the slack-delta view.
package timing
