// Package opt applies the Penfield–Rubinstein bounds to the design questions
// the paper's introduction motivates: because TMax is a *guaranteed* upper
// bound on delay, any design choice certified with TMax is safe regardless
// of where in the envelope the true response falls. The package provides
// certified driver sizing, maximum-wire-length rules, and repeater insertion
// for long lines — the classic interconnect-era design loop, driven entirely
// by the paper's closed-form bounds (no simulation).
package opt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/mos"
	"repro/internal/rctree"
)

// Budget is a timing contract: the output must pass threshold V no later
// than Deadline (certified via TMax).
type Budget struct {
	V        float64
	Deadline float64
}

func (b Budget) validate() error {
	// The negated comparisons also reject NaN, which v <= 0 || v >= 1 lets by.
	if !(b.V > 0 && b.V < 1) {
		return fmt.Errorf("opt: threshold %g outside (0,1)", b.V)
	}
	if !(b.Deadline > 0) {
		return fmt.Errorf("opt: deadline must be positive, got %g", b.Deadline)
	}
	return nil
}

// certified reports whether the tree's output meets the budget with
// certainty (TMax <= deadline).
func certified(t *rctree.Tree, out rctree.NodeID, b Budget) (bool, error) {
	tm, err := t.CharacteristicTimes(out)
	if err != nil {
		return false, err
	}
	return certifiedTimes(tm, b)
}

// certifiedTimes is the Times half of certified, shared with the
// incremental probes.
func certifiedTimes(tm rctree.Times, b Budget) (bool, error) {
	bounds, err := core.New(tm)
	if err != nil {
		return false, err
	}
	return bounds.TMax(b.V) <= b.Deadline, nil
}

// EditsPerProbe is the incremental price of one bisection probe in this
// package's in-place searches: each probe performs exactly one EditTree edit
// (a SetResistance or SetLine) plus one O(depth) requery. Consumers that
// budget repair work — the closure engine accounts its bisection guidance
// this way — multiply a search's Probes by this constant.
const EditsPerProbe = 1

// ProbeStats reports how much incremental work a bisection search performed.
type ProbeStats struct {
	// Probes counts constraint evaluations, including the lo/hi endpoint
	// checks that may answer the search outright.
	Probes int
	// Edits is the EditTree edit count those probes cost in an in-place
	// search (Probes · EditsPerProbe); searches that rebuild the network per
	// probe (SizeDriver's build callback) spend no EditTree edits and report 0.
	Edits int
}

// MaxParam finds, by bisection to relative tolerance tol, the largest p in
// [lo, hi] for which ok(p) holds, assuming ok is monotone (true for small p,
// false for large). It returns an error if ok(lo) is already false, and
// returns hi if ok(hi) still holds.
func MaxParam(lo, hi, tol float64, ok func(p float64) (bool, error)) (float64, error) {
	p, _, err := MaxParamStats(lo, hi, tol, ok)
	return p, err
}

// MaxParamStats is MaxParam with the probe count exposed: Stats.Probes is
// how many times ok ran. The caller knows what one probe cost (EditsPerProbe
// for the in-place searches here) and fills Edits accordingly; MaxParamStats
// itself leaves it 0 because ok is opaque.
func MaxParamStats(lo, hi, tol float64, ok func(p float64) (bool, error)) (float64, ProbeStats, error) {
	var stats ProbeStats
	if !(lo < hi) {
		return 0, stats, fmt.Errorf("opt: need lo < hi, got [%g, %g]", lo, hi)
	}
	if tol <= 0 {
		tol = 1e-6
	}
	probe := func(p float64) (bool, error) {
		stats.Probes++
		return ok(p)
	}
	okLo, err := probe(lo)
	if err != nil {
		return 0, stats, err
	}
	if !okLo {
		return 0, stats, fmt.Errorf("opt: constraint unsatisfiable even at p=%g", lo)
	}
	okHi, err := probe(hi)
	if err != nil {
		return 0, stats, err
	}
	if okHi {
		return hi, stats, nil
	}
	for hi-lo > tol*(1+math.Abs(hi)) {
		mid := (lo + hi) / 2
		good, err := probe(mid)
		if err != nil {
			return 0, stats, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, stats, nil
}

// SizeDriver returns the largest driver effective resistance (i.e. the
// smallest, cheapest driver) that still certifies the budget for the network
// produced by build. build must return the tree and the timed output for a
// given driver resistance; delay must be nondecreasing in the resistance
// (true for every RC tree, since the driver resistance is common to all
// paths).
//
// Each probe rebuilds the network from scratch; when the topology is fixed
// and only the driver edge varies, SizeDriverTree answers the same question
// with one O(depth) incremental edit per probe.
func SizeDriver(build func(rEff float64) (*rctree.Tree, rctree.NodeID, error),
	budget Budget, rLo, rHi float64) (float64, error) {
	if err := budget.validate(); err != nil {
		return 0, err
	}
	return MaxParam(rLo, rHi, 1e-6, func(r float64) (bool, error) {
		t, out, err := build(r)
		if err != nil {
			return false, err
		}
		return certified(t, out, budget)
	})
}

// SizeDriverTree sizes the driver of a fixed network incrementally: the tree
// is wrapped in an incr.EditTree once, and every bisection probe becomes a
// single SetResistance on driverEdge (the node whose parent element is the
// driver's effective resistance) plus one O(depth) requery of out — no
// rebuilding, no O(n) reanalysis. It returns the largest certified driver
// resistance in [rLo, rHi], like SizeDriver.
func SizeDriverTree(t *rctree.Tree, driverEdge, out rctree.NodeID, budget Budget, rLo, rHi float64) (float64, error) {
	r, _, err := SizeDriverTreeStats(t, driverEdge, out, budget, rLo, rHi)
	return r, err
}

// SizeDriverTreeStats is SizeDriverTree with the probe cost exposed: every
// bisection probe costs exactly EditsPerProbe EditTree edits, and Stats
// reports the totals.
func SizeDriverTreeStats(t *rctree.Tree, driverEdge, out rctree.NodeID, budget Budget, rLo, rHi float64) (float64, ProbeStats, error) {
	if err := budget.validate(); err != nil {
		return 0, ProbeStats{}, err
	}
	// The driver element is by definition the one common to every root path,
	// i.e. an edge leaving the input (mos.AttachDriver always builds it
	// there). Anything deeper would silently bisect a wire segment instead.
	if int(driverEdge) <= 0 || int(driverEdge) >= t.NumNodes() || t.Parent(driverEdge) != rctree.Root {
		return 0, ProbeStats{}, fmt.Errorf("opt: driverEdge %d must be a child of the input (its parent element is the driver resistance)", driverEdge)
	}
	et := incr.New(t)
	r, stats, err := MaxParamStats(rLo, rHi, 1e-6, func(r float64) (bool, error) {
		if err := et.SetResistance(driverEdge, r); err != nil {
			return false, err
		}
		tm, err := et.Times(out)
		if err != nil {
			return false, err
		}
		return certifiedTimes(tm, budget)
	})
	stats.Edits = stats.Probes * EditsPerProbe
	return r, stats, err
}

// Line describes a uniform wire by per-unit-length resistance and
// capacitance (ohms and farads per meter, or any consistent units).
type Line struct {
	RPerLen, CPerLen float64
}

func (l Line) validate() error {
	if l.RPerLen <= 0 || l.CPerLen <= 0 {
		return fmt.Errorf("opt: line needs positive per-unit R and C, got %+v", l)
	}
	return nil
}

// buildPointToPoint assembles driver -> line(length) -> load and returns the
// load node as output.
func buildPointToPoint(d mos.Driver, l Line, length, loadC float64) (*rctree.Tree, rctree.NodeID, error) {
	b := rctree.NewBuilder("in")
	drv, err := mos.AttachDriver(b, d)
	if err != nil {
		return nil, 0, err
	}
	far := b.Line(drv, "far", l.RPerLen*length, l.CPerLen*length)
	if loadC > 0 {
		b.Capacitor(far, loadC)
	}
	b.Output(far)
	t, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return t, far, nil
}

// MaxWireLength returns the longest run of the given line, between the
// driver and a lumped load, that is certified to meet the budget. maxLen
// caps the search; if even maxLen passes, maxLen is returned.
//
// The driver→line→load tree is built once; each bisection probe rescales the
// line element in place (one incr.EditTree edit + one O(depth) requery)
// instead of reassembling and reanalyzing the network.
func MaxWireLength(d mos.Driver, l Line, loadC float64, budget Budget, maxLen float64) (float64, error) {
	length, _, err := MaxWireLengthStats(d, l, loadC, budget, maxLen)
	return length, err
}

// MaxWireLengthStats is MaxWireLength with the probe cost exposed: every
// bisection probe costs exactly EditsPerProbe EditTree edits (one in-place
// SetLine rescale), and Stats reports the totals. Note the lower bisection
// bound is a near-zero-length wire, not zero: a zero-length line would be a
// degenerate element the tree model rejects, so "even the shortest wire
// fails" surfaces as the generic unsatisfiable-at-lo bisection error.
func MaxWireLengthStats(d mos.Driver, l Line, loadC float64, budget Budget, maxLen float64) (float64, ProbeStats, error) {
	if err := budget.validate(); err != nil {
		return 0, ProbeStats{}, err
	}
	if err := l.validate(); err != nil {
		return 0, ProbeStats{}, err
	}
	if maxLen <= 0 {
		return 0, ProbeStats{}, fmt.Errorf("opt: maxLen must be positive")
	}
	t, out, err := buildPointToPoint(d, l, maxLen, loadC)
	if err != nil {
		return 0, ProbeStats{}, err
	}
	et := incr.New(t)
	const tiny = 1e-9
	length, stats, err := MaxParamStats(tiny*maxLen, maxLen, 1e-9, func(length float64) (bool, error) {
		if err := et.SetLine(out, l.RPerLen*length, l.CPerLen*length); err != nil {
			return false, err
		}
		tm, err := et.Times(out)
		if err != nil {
			return false, err
		}
		return certifiedTimes(tm, budget)
	})
	stats.Edits = stats.Probes * EditsPerProbe
	return length, stats, err
}

// RepeaterPlan is the result of certified repeater insertion.
type RepeaterPlan struct {
	// Stages is the number of driver+segment stages (1 = no repeaters).
	Stages int
	// PerStageTMax is the certified worst-case delay of one stage at the
	// budget threshold; TotalTMax = Stages · PerStageTMax.
	PerStageTMax float64
	TotalTMax    float64
	// Probes counts the candidate stage counts evaluated (== maxStages);
	// each cost EditsPerProbe in-place EditTree edits.
	Probes int
}

// InsertRepeaters chooses the number of identical repeater stages that
// minimizes the certified end-to-end delay of a long line: each stage is a
// driver (the repeater) plus a line segment of length/stages plus the next
// repeater's input capacitance. The total worst-case delay is the sum of the
// per-stage TMax values — valid because each repeater restores the signal,
// so stages time independently (the classical Bakoglu decomposition, here
// with certified per-stage delays).
//
// repeaterIn is the input capacitance a stage presents as load; the final
// stage drives loadC instead. maxStages caps the search.
func InsertRepeaters(d mos.Driver, l Line, length, repeaterIn, loadC, v float64, maxStages int) (RepeaterPlan, error) {
	if !(v > 0 && v < 1) {
		return RepeaterPlan{}, fmt.Errorf("opt: threshold %g outside (0,1)", v)
	}
	if err := l.validate(); err != nil {
		return RepeaterPlan{}, err
	}
	if length <= 0 || maxStages < 1 {
		return RepeaterPlan{}, fmt.Errorf("opt: need positive length and maxStages >= 1")
	}
	// A middle stage drives the next repeater; the last drives loadC. For
	// identical stages, size with the heavier of the two loads so the
	// certificate covers both. The stage tree is built once; each candidate
	// stage count k just rescales the line element in place.
	load := math.Max(repeaterIn, loadC)
	t, out, err := buildPointToPoint(d, l, length, load)
	if err != nil {
		return RepeaterPlan{}, err
	}
	et := incr.New(t)
	best := RepeaterPlan{TotalTMax: math.Inf(1)}
	for k := 1; k <= maxStages; k++ {
		segLen := length / float64(k)
		if err := et.SetLine(out, l.RPerLen*segLen, l.CPerLen*segLen); err != nil {
			return RepeaterPlan{}, err
		}
		tm, err := et.Times(out)
		if err != nil {
			return RepeaterPlan{}, err
		}
		bounds, err := core.New(tm)
		if err != nil {
			return RepeaterPlan{}, err
		}
		per := bounds.TMax(v)
		total := float64(k) * per
		if total < best.TotalTMax {
			best = RepeaterPlan{Stages: k, PerStageTMax: per, TotalTMax: total}
		}
	}
	best.Probes = maxStages
	return best, nil
}
