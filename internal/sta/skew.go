package sta

import (
	"fmt"

	"repro/internal/core"
)

// SkewBound brackets the clock skew between two outputs of the same tree at
// threshold v: the latest possible arrival of one minus the earliest
// possible arrival of the other. The returned interval [Min, Max] is
// guaranteed to contain arrival(a) − arrival(b) for the true responses.
type SkewBound struct {
	Min, Max float64
}

// Skew computes the guaranteed skew interval between results a and b (as
// returned by core.AnalyzeTree on one tree) at threshold v.
//
//	skew(a,b) ∈ [TMin_a − TMax_b , TMax_a − TMin_b]
//
// For a perfectly symmetric distribution network the interval is centered on
// zero and its width equals the sum of the two delay-uncertainty windows.
func Skew(a, b core.Result, v float64) (SkewBound, error) {
	if !(v > 0 && v < 1) {
		return SkewBound{}, fmt.Errorf("sta: skew threshold %g outside (0,1)", v)
	}
	return SkewBound{
		Min: a.Bounds.TMin(v) - b.Bounds.TMax(v),
		Max: a.Bounds.TMax(v) - b.Bounds.TMin(v),
	}, nil
}

// WorstSkew returns the largest certified |skew| over all output pairs —
// the number a clock-tree designer budgets against.
func WorstSkew(results []core.Result, v float64) (float64, error) {
	if len(results) < 2 {
		return 0, fmt.Errorf("sta: worst skew needs at least two outputs")
	}
	var worst float64
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			sb, err := Skew(results[i], results[j], v)
			if err != nil {
				return 0, err
			}
			if x := -sb.Min; x > worst {
				worst = x
			}
			if sb.Max > worst {
				worst = sb.Max
			}
		}
	}
	return worst, nil
}
