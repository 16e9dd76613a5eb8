// Package closure is the automated timing-closure engine: given a design
// session with negative slack, it searches for an ECO edit list — in the
// same setR/setC/setLine/scaleDriver/grow/prune grammar statime -eco
// replays — that drives WNS (and with it TNS) toward zero, and reports the
// closure trajectory plus the Pareto frontier of (cost, WNS) points visited.
//
// # The loop
//
// Each iteration takes the session's worst failing endpoints, worst first
// (Session.WorstEndpoints ranks them from the per-net slack aggregates the
// session keeps current across Applies, expanding only the few nets that
// can hold them; no full slack report is built), generates candidate moves
// on the nets of each failing endpoint's critical upstream cone, evaluates
// every affordable candidate as a what-if trial — a Session.Fork absorbs
// the candidate's edits and answers the resulting WNS/TNS without touching
// the live session — and accepts the best move by slack gain per unit cost.
// The loop stops when WNS ≥ 0, the move budget or cost ceiling is
// exhausted, or no candidate improves timing.
//
// Trials run one after another on one fork, re-forked in place once per
// round (ForkInto is O(nets)); after each trial, Session.Revert puts it
// back to the live session's state in O(nets the trial touched), leaving
// it as a fresh fork would be. So every trial computes the same numbers
// whatever trials its fork ran before, and the argmax tie-breaks on
// candidate index: the accepted move sequence is deterministic. A round's
// trials take well under a millisecond on the closure workload's shape, so
// a worker pool would cost more in forks and hand-offs than it saves.
//
// # Corners
//
// With Options.Corners set, each swept corner is a Session.Scaled view of
// the live session. The paper's TP, TD and TR are sums of R·C products and
// its delay bounds are degree-1 homogeneous in them, so scaling every R by
// r and every C by c scales each net delay by exactly r·c: a view needs no
// scaled netlist, no tree of its own and no tree query. A trial applies its
// edits once, to the typical fork; each view is also forked once per round,
// and the view forks Follow the typical fork — λ times its new delays for
// the edited nets, then their own dirty-cone sweep — and revert alongside
// it. An accepted move is applied to the session and
// followed by each view the same way. A move that regresses any corner's
// WNS is vetoed.
//
// # Move generators
//
// Four generators mine a failing endpoint, all guided by the session's
// current state (never by a full re-analysis):
//
//   - upsizeDriver: scaleDriver by a fixed factor (0.7, 0.5) on each net of
//     the endpoint's critical cone — a stronger driver lowers every root
//     path's common resistance.
//   - tunedDriver: on the endpoint's own net, an opt.MaxParamStats bisection
//     over the driver scale finds the *largest* (cheapest) factor whose
//     certified TMax still meets the endpoint's local budget (required time
//     minus input arrival). Probes run against a CloneNetTree overlay, one
//     EditTree edit per driver edge per probe; the report's GuidedProbes/
//     GuidedEdits account them via opt.EditsPerProbe.
//   - rebufferWire: the highest-resistance distributed line on the failing
//     output's root path is cut to half length (setLine R/2 C/2) and the
//     repeater's input capacitance lands at the cut (addC) — the classical
//     long-wire repair, approximated within one net: the far half of the
//     wire is assumed re-driven by the inserted repeater, which the single-
//     tree model cannot represent, so the move is heuristic-optimistic and
//     the trial evaluates what the bounds actually certify.
//   - trimLoad / pruneStub: setC shrinks the endpoint's lumped load (a
//     smaller receiver), and prune removes the largest parasitic stub — a
//     subtree containing no designated or protected output — from a cone
//     net. Structural guards (stage-tapped and require-pinned outputs) are
//     respected by construction and enforced again by the trial Apply.
//
// # Cost model and the accept heuristic
//
// Costs are abstract area units; only their relative magnitudes matter, and
// they steer the frontier rather than model a process: upsizing a driver by
// 1/f costs 8·(1/f−1) (driver area grows with drive strength), a repeater
// costs 6, a load trim costs 2 plus the capacitance removed, and a stub
// prune costs 1.5 (an ECO's disruption is never free). A candidate is
// accepted only if it does not regress WNS and improves the combined
// objective ΔWNS + 0.05·ΔTNS; among improving candidates the engine
// maximizes gain per unit cost. The TNS term matters when several endpoints
// tie at the worst slack: fixing one leaves WNS unchanged, and TNS progress
// keeps the loop moving instead of stalling.
//
// Every trial visited — accepted or not — contributes a (cumulative cost,
// WNS) point; the report's Pareto field keeps the non-dominated frontier,
// exposing the full cost/benefit trade-off instead of only the greedy path.
package closure
