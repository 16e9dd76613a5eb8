// Package mc estimates the effect of process variation on RC-tree timing by
// Monte Carlo: element values are perturbed with independent relative
// Gaussian variations (sheet-resistance and oxide-thickness spread), the
// characteristic times recomputed per sample, and any scalar timing metric
// summarized with moments and quantiles.
//
// Because the Penfield–Rubinstein TMax is itself a guaranteed bound, the
// high quantiles of TMax under variation give a *certified-under-variation*
// delay figure — the corner-analysis workflow of the era, with statistics.
//
// This package works on single trees and rebuilds the tree per sample.
// Design-level callers wanting the same analysis across a whole chip —
// process corners, per-endpoint slack distributions, criticality
// probability — should use internal/mcd, which sweeps the flat timing arena
// in place instead of rebuilding trees and is orders of magnitude cheaper
// per sample on large designs.
package mc

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/rctree"
	"repro/internal/stats"
)

// Variation describes independent relative 1-sigma spreads of every
// resistance and capacitance. Gaussian factors are clipped to stay positive
// (at 1% of nominal); every clipped draw is counted in Result.Clipped, since
// clipping truncates the low tail and biases the mean and quantiles upward.
type Variation struct {
	RSigma, CSigma float64
}

// Metric maps an output's characteristic times to the scalar under study.
type Metric func(tm rctree.Times) (float64, error)

// TMaxAt returns the metric "certified delay at threshold v".
func TMaxAt(v float64) Metric {
	return func(tm rctree.Times) (float64, error) {
		b, err := core.New(tm)
		if err != nil {
			return 0, err
		}
		return b.TMax(v), nil
	}
}

// ElmoreTD is the baseline metric: the Elmore delay itself.
func ElmoreTD() Metric {
	return func(tm rctree.Times) (float64, error) { return tm.TD, nil }
}

// Result summarizes the sampled metric.
//
// Clipped counts the individual Gaussian factor draws (across all samples and
// all elements) that fell below the 0.01 positivity floor and were clipped to
// it. Clipping truncates the low tail of the factor distribution, which
// biases Mean and the quantiles upward relative to an unclipped Gaussian; at
// fabrication-realistic sigmas (a few percent) Clipped is essentially always
// zero, and a nonzero count is the signal that sigma is large enough for the
// reported statistics to carry that bias.
type Result struct {
	Samples       int
	Nominal       float64
	Mean, Std     float64
	Min, Max      float64
	P50, P95, P99 float64
	Clipped       int
}

// Run draws samples perturbed trees, evaluates the metric at output e of
// each, and summarizes. Sampling is deterministic for a given seed; it is a
// convenience wrapper over RunWithRand with a private rand.New source.
func Run(t *rctree.Tree, e rctree.NodeID, metric Metric, v Variation, samples int, seed int64) (Result, error) {
	return RunWithRand(t, e, metric, v, samples, rand.New(rand.NewSource(seed)))
}

// RunWithRand is Run with an injected random source, the form parallel
// callers should use: math/rand's global and shared sources serialize (or
// race) under concurrency, so give each goroutine its own seeded *rand.Rand
// and the sampling is both reproducible and contention-free. rng must not be
// nil and must not be shared with another concurrent caller.
func RunWithRand(t *rctree.Tree, e rctree.NodeID, metric Metric, v Variation, samples int, rng *rand.Rand) (Result, error) {
	if rng == nil {
		return Result{}, fmt.Errorf("mc: nil random source; inject a seeded *rand.Rand")
	}
	if samples < 1 {
		return Result{}, fmt.Errorf("mc: samples must be >= 1, got %d", samples)
	}
	if v.RSigma < 0 || v.CSigma < 0 {
		return Result{}, fmt.Errorf("mc: negative sigma in %+v", v)
	}
	nomTimes, err := t.CharacteristicTimes(e)
	if err != nil {
		return Result{}, err
	}
	nominal, err := metric(nomTimes)
	if err != nil {
		return Result{}, err
	}
	values := make([]float64, 0, samples)
	var w stats.Welford
	clipped := 0
	for s := 0; s < samples; s++ {
		pt, outID, clips, err := perturb(t, e, v, rng)
		if err != nil {
			return Result{}, err
		}
		clipped += clips
		tm, err := pt.CharacteristicTimes(outID)
		if err != nil {
			return Result{}, err
		}
		val, err := metric(tm)
		if err != nil {
			return Result{}, err
		}
		values = append(values, val)
		w.Add(val)
	}
	sort.Float64s(values)
	return Result{
		Samples: samples,
		Nominal: nominal,
		Mean:    w.Mean(),
		Std:     w.Std(),
		Min:     w.Min(),
		Max:     w.Max(),
		P50:     stats.Quantile(values, 0.50),
		P95:     stats.Quantile(values, 0.95),
		P99:     stats.Quantile(values, 0.99),
		Clipped: clipped,
	}, nil
}

// perturb rebuilds the tree with every element value multiplied by an
// independent Gaussian factor, and maps the output node through. The third
// result counts factor draws that hit the 0.01 positivity floor (see
// Result.Clipped).
func perturb(t *rctree.Tree, e rctree.NodeID, v Variation, rng *rand.Rand) (*rctree.Tree, rctree.NodeID, int, error) {
	clipped := 0
	draw := func(nominal, sigma float64) float64 {
		if nominal == 0 || sigma == 0 {
			return nominal
		}
		f := 1 + sigma*rng.NormFloat64()
		if f < 0.01 {
			f = 0.01
			clipped++
		}
		return nominal * f
	}
	b := rctree.NewBuilderSize(t.Name(rctree.Root), t.NumNodes(), len(t.Outputs()))
	ids := map[rctree.NodeID]rctree.NodeID{rctree.Root: rctree.Root}
	var buildErr error
	t.Walk(func(id rctree.NodeID) {
		if buildErr != nil {
			return
		}
		if id == rctree.Root {
			if c := t.NodeCap(id); c > 0 {
				b.Capacitor(rctree.Root, draw(c, v.CSigma))
			}
			return
		}
		kind, r, c := t.Edge(id)
		var nid rctree.NodeID
		switch kind {
		case rctree.EdgeResistor:
			nid = b.Resistor(ids[t.Parent(id)], t.Name(id), draw(r, v.RSigma))
		case rctree.EdgeLine:
			nid = b.Line(ids[t.Parent(id)], t.Name(id), draw(r, v.RSigma), draw(c, v.CSigma))
		default:
			buildErr = fmt.Errorf("mc: unexpected edge kind at node %q", t.Name(id))
			return
		}
		ids[id] = nid
		if nc := t.NodeCap(id); nc > 0 {
			b.Capacitor(nid, draw(nc, v.CSigma))
		}
	})
	if buildErr != nil {
		return nil, 0, 0, buildErr
	}
	b.Output(ids[e])
	pt, err := b.Build()
	if err != nil {
		return nil, 0, 0, err
	}
	return pt, ids[e], clipped, nil
}
