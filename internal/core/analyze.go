package core

import (
	"fmt"
	"sort"

	"repro/internal/rctree"
)

// Result pairs an output node with its characteristic times and bounds.
type Result struct {
	Output rctree.NodeID
	Name   string
	Times  rctree.Times
	Bounds *Bounds
}

// Analyzer computes per-output bounds while reusing the characteristic-time
// working arrays between trees. All mutable state is owned by the Analyzer,
// so distinct Analyzers may run concurrently on distinct goroutines (one per
// worker); a single Analyzer must not be shared. The zero value is ready to
// use.
type Analyzer struct {
	scratch rctree.Scratch
}

// NewAnalyzer returns an Analyzer with fresh scratch.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// Analyze computes bounds for every designated output of the tree, returned
// in output-declaration order. Results reference only immutable state and
// may be shared freely once returned.
func (a *Analyzer) Analyze(t *rctree.Tree) ([]Result, error) {
	results := make([]Result, 0, len(t.Outputs()))
	for _, e := range t.Outputs() {
		tm, err := t.CharacteristicTimesInto(e, &a.scratch)
		if err != nil {
			return nil, fmt.Errorf("core: output %q: %w", t.Name(e), err)
		}
		b, err := New(tm)
		if err != nil {
			return nil, fmt.Errorf("core: output %q: %w", t.Name(e), err)
		}
		results = append(results, Result{Output: e, Name: t.Name(e), Times: tm, Bounds: b})
	}
	return results, nil
}

// AnalyzeTree computes bounds for every designated output of the tree with a
// one-shot Analyzer.
func AnalyzeTree(t *rctree.Tree) ([]Result, error) {
	return NewAnalyzer().Analyze(t)
}

// DelayRow is one line of the paper's Figure 10 delay table: a threshold and
// its bracketed crossing time.
type DelayRow struct {
	V          float64
	TMin, TMax float64
}

// DelayTable evaluates TMin/TMax at each threshold, reproducing the first
// Figure 10 table.
func (b *Bounds) DelayTable(thresholds []float64) []DelayRow {
	rows := make([]DelayRow, len(thresholds))
	for i, v := range thresholds {
		rows[i] = DelayRow{V: v, TMin: b.TMin(v), TMax: b.TMax(v)}
	}
	return rows
}

// VoltageRow is one line of the paper's Figure 10 voltage table: a time and
// its bracketed response voltage.
type VoltageRow struct {
	T          float64
	VMin, VMax float64
}

// VoltageTable evaluates VMin/VMax at each time, reproducing the second
// Figure 10 table.
func (b *Bounds) VoltageTable(times []float64) []VoltageRow {
	rows := make([]VoltageRow, len(times))
	for i, t := range times {
		rows[i] = VoltageRow{T: t, VMin: b.VMin(t), VMax: b.VMax(t)}
	}
	return rows
}

// CriticalOutputs sorts analysis results by descending TMax at the given
// threshold, the ordering a designer cares about: the slowest-certifiable
// output first. Ties break by name for determinism.
func CriticalOutputs(results []Result, threshold float64) []Result {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool {
		ti, tj := sorted[i].Bounds.TMax(threshold), sorted[j].Bounds.TMax(threshold)
		if ti != tj {
			return ti > tj
		}
		return sorted[i].Name < sorted[j].Name
	})
	return sorted
}

// SkewBound brackets the clock skew between two outputs of the same tree at
// one threshold: [Min, Max] is guaranteed to contain arrival(a) − arrival(b)
// for the true responses.
type SkewBound struct {
	Min, Max float64
}

// Skew computes the guaranteed skew interval between results a and b of one
// tree at threshold v, which must lie in (0,1):
//
//	skew(a,b) ∈ [TMin_a − TMax_b , TMax_a − TMin_b]
//
// For a perfectly symmetric distribution network the interval is centered on
// zero and its width equals the sum of the two delay-uncertainty windows.
func Skew(a, b Result, v float64) (SkewBound, error) {
	if !(v > 0 && v < 1) {
		return SkewBound{}, fmt.Errorf("core: skew threshold %g outside (0,1)", v)
	}
	return SkewBound{
		Min: a.Bounds.TMin(v) - b.Bounds.TMax(v),
		Max: a.Bounds.TMax(v) - b.Bounds.TMin(v),
	}, nil
}

// WorstSkew returns the largest certified |skew| at threshold v over every
// pair of results — the number a clock-tree designer budgets against. It
// needs at least two results.
func WorstSkew(results []Result, v float64) (float64, error) {
	if len(results) < 2 {
		return 0, fmt.Errorf("core: worst skew needs at least two outputs")
	}
	var worst float64
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			sb, err := Skew(results[i], results[j], v)
			if err != nil {
				return 0, err
			}
			worst = max(worst, -sb.Min, sb.Max)
		}
	}
	return worst, nil
}
