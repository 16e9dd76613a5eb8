// Package mcd lifts Monte Carlo variation analysis from single RC trees
// (internal/mc) to whole designs: process-corner sweeps with per-net Gaussian
// derating, evaluated as vectorized passes over the flat timing arena.
//
// # Model
//
// A Corner is a global (R scale, C scale) pair — the classic slow/typ/fast
// process points. On top of each corner, Variation draws one independent
// Gaussian factor pair per net per sample (sheet-resistance and oxide spread
// are spatially correlated within a net, independent across nets at this
// granularity). The same per-net factor draws are reused across all corners
// of one sample — the corners model the same die shifted globally, so their
// distributions are comparable point by point.
//
// # Execution
//
// Where internal/mc rebuilds a pointer tree per sample, mcd mounts a
// timing.VarArena over the design's flat arena, which sweeps every tree once,
// at nominal values. The paper's bounds are degree-1 homogeneous in the
// characteristic times, which are sums of R·C products, so a corner's global
// scales and a sample's per-net factors scale each net's nominal delay
// intervals by one λ per net: a corner or sample is a DAG arrival pass over
// λ-scaled nominal delays, with no tree sweep and no tree construction.
// Workers each own a VarArena clone and write disjoint sample rows of one
// arrival matrix, reused across corners; the per-endpoint statistics then
// fan out over the same workers, strided over endpoints, each sorting an
// endpoint's arrival column once in its own buffer and deriving the slack
// distribution from that sort. Every value is reduced from the same inputs
// in the same order whichever worker computes it, so results are
// bit-identical for a given seed regardless of worker count — the
// determinism test pins this.
//
// # Results
//
// Per corner: nominal WNS/TNS (no derating), full WNS/TNS distributions,
// per-endpoint arrival and slack distributions (mean/std and P50/P95/P99 via
// the shared internal/stats convention), and each endpoint's criticality —
// the fraction of samples in which it is the worst-slack endpoint. Gaussian
// factors are clipped at 0.01 to stay positive; Report.Clipped counts the
// clipped draws, since clipping truncates the low tail and biases results
// (see internal/mc's Result.Clipped for the same contract).
package mcd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/trace"
)

// Corner is one global process point: every resistance in the design scales
// by RScale, every capacitance by CScale.
type Corner struct {
	Name   string  `json:"name"`
	RScale float64 `json:"rScale"`
	CScale float64 `json:"cScale"`
}

// Validate reports a scale that is not finite and positive.
func (c Corner) Validate() error {
	// The negated comparisons also reject NaN, which a plain v <= 0 lets by.
	if !(c.RScale > 0) || math.IsInf(c.RScale, 1) {
		return fmt.Errorf("corner %q rScale must be finite and > 0, got %g", c.Name, c.RScale)
	}
	if !(c.CScale > 0) || math.IsInf(c.CScale, 1) {
		return fmt.Errorf("corner %q cScale must be finite and > 0, got %g", c.Name, c.CScale)
	}
	return nil
}

// DefaultCorners is the classic three-point sweep: slow (+15% R and C),
// typical, fast (−15%).
func DefaultCorners() []Corner {
	return []Corner{
		{Name: "slow", RScale: 1.15, CScale: 1.15},
		{Name: "typ", RScale: 1, CScale: 1},
		{Name: "fast", RScale: 0.85, CScale: 0.85},
	}
}

// Variation is the per-net Gaussian derating applied on top of each corner:
// independent relative 1-sigma spreads of each net's resistances and
// capacitances. Zero sigmas disable the corresponding draws entirely (and
// consume no randomness), leaving a pure corner sweep.
type Variation struct {
	RSigma float64 `json:"rSigma"`
	CSigma float64 `json:"cSigma"`
}

// Options configures a design-level variation analysis.
type Options struct {
	// Corners to sweep; nil means DefaultCorners().
	Corners []Corner
	// Variation is the per-net Gaussian derating (zero value: none).
	Variation Variation
	// Samples per corner; 0 means 256.
	Samples int
	// Seed feeds the factor draws; the same seed reproduces the same report
	// exactly, at any worker count.
	Seed int64
	// Threshold is the receiving gates' switching threshold (0 means 0.5).
	Threshold float64
	// Required is the default required arrival time for endpoints without an
	// explicit .require card; <= 0 leaves them unconstrained.
	Required float64
	// Workers caps sweep parallelism; 0 means GOMAXPROCS.
	Workers int
	// Sequential forces the whole sweep onto the caller's goroutine.
	Sequential bool
	// Obs receives per-corner sweep spans; nil disables telemetry.
	Obs *obs.Registry
}

// Dist summarizes one sampled scalar with moments and the shared quantile
// convention (internal/stats: R-7 interpolation).
type Dist struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// distOf summarizes vals (not required sorted). The sorted copy the
// quantiles need is built in buf's storage when it is large enough, so a
// caller summarizing many columns reuses one buffer.
func distOf(vals, buf []float64) Dist {
	var w stats.Welford
	for _, v := range vals {
		w.Add(v)
	}
	sorted := append(buf[:0], vals...)
	sort.Float64s(sorted)
	return distSorted(&w, sorted)
}

// slackDistOf is distOf over the slacks req − arr[s], given sorted, a sorted
// copy of arr, which it overwrites. fl(req − x) is non-increasing in x, so
// the sorted slacks are the sorted arrivals reversed and mapped through
// req − x, bit for bit; the moments still run over the slacks in sample
// order. One sort per endpoint thus serves both of its distributions.
func slackDistOf(req float64, arr, sorted []float64) Dist {
	var w stats.Welford
	for _, x := range arr {
		w.Add(req - x)
	}
	for i, j := 0, len(sorted)-1; i <= j; i, j = i+1, j-1 {
		sorted[i], sorted[j] = req-sorted[j], req-sorted[i]
	}
	return distSorted(&w, sorted)
}

// distSorted assembles a Dist from accumulated moments and the sorted values.
func distSorted(w *stats.Welford, sorted []float64) Dist {
	return Dist{
		Mean: w.Mean(), Std: w.Std(), Min: w.Min(), Max: w.Max(),
		P50: stats.Quantile(sorted, 0.50),
		P95: stats.Quantile(sorted, 0.95),
		P99: stats.Quantile(sorted, 0.99),
	}
}

// EndpointDist is one endpoint's behavior at one corner under variation.
type EndpointDist struct {
	Net    string
	Output string
	// Required is the endpoint's required arrival time, +Inf when
	// unconstrained.
	Required float64
	// NominalArrival and NominalSlack are the corner's values with no
	// derating (per-net factors all 1). NominalSlack is +Inf when
	// unconstrained.
	NominalArrival float64
	NominalSlack   float64
	// Arrival is the distribution of the latest arrival; Slack is the
	// distribution of the slack, nil for unconstrained endpoints.
	Arrival Dist
	Slack   *Dist
	// Criticality is the fraction of samples in which this endpoint had the
	// worst slack of the design (0 for unconstrained endpoints).
	Criticality float64
}

// CornerResult is the sweep of one corner.
type CornerResult struct {
	Corner Corner
	// NominalWNS/NominalTNS are the corner's WNS and TNS with no derating;
	// NominalWNS is +Inf when no endpoint is constrained.
	NominalWNS float64
	NominalTNS float64
	// WNS is the distribution of per-sample worst negative slack, nil when no
	// endpoint is constrained. TNS is the distribution of per-sample total
	// negative slack.
	WNS *Dist
	TNS Dist
	// Endpoints are ordered by ascending nominal slack (worst first);
	// unconstrained endpoints follow, by descending nominal arrival.
	Endpoints []EndpointDist
}

// Report is the full multi-corner variation analysis of one design.
type Report struct {
	Design    string
	Threshold float64
	Samples   int
	Seed      int64
	Variation Variation
	// Clipped counts Gaussian factor draws clipped at the 0.01 positivity
	// floor across all samples (shared by every corner); nonzero means the
	// distributions carry upward truncation bias.
	Clipped int
	Corners []CornerResult
	// WorstCorner names the corner with the smallest nominal WNS ("" when no
	// endpoint is constrained).
	WorstCorner string
}

// resolve applies Options defaults and validates.
func (opt Options) resolve() (Options, error) {
	if opt.Samples == 0 {
		opt.Samples = 256
	}
	if opt.Samples < 1 {
		return opt, fmt.Errorf("mcd: samples must be >= 1, got %d", opt.Samples)
	}
	// The negated comparisons also reject NaN, which a plain v < 0 lets by.
	if v := opt.Variation.RSigma; !(v >= 0) || math.IsInf(v, 1) {
		return opt, fmt.Errorf("mcd: rSigma must be finite and >= 0, got %g", v)
	}
	if v := opt.Variation.CSigma; !(v >= 0) || math.IsInf(v, 1) {
		return opt, fmt.Errorf("mcd: cSigma must be finite and >= 0, got %g", v)
	}
	if opt.Corners == nil {
		opt.Corners = DefaultCorners()
	}
	if len(opt.Corners) == 0 {
		return opt, fmt.Errorf("mcd: empty corner list")
	}
	for _, c := range opt.Corners {
		if err := c.Validate(); err != nil {
			return opt, fmt.Errorf("mcd: %w", err)
		}
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Sequential {
		opt.Workers = 1
	}
	return opt, nil
}

// drawFactors draws the per-net factor matrices for every sample: one R and
// one C factor per net per sample, clipped at 0.01. A zero sigma returns a
// nil matrix for that dimension and consumes no draws. Draw order is
// sample-major, then net, R before C — the property tests reproduce it.
func drawFactors(nets, samples int, v Variation, seed int64) (rF, cF [][]float64, clipped int) {
	rng := rand.New(rand.NewSource(seed))
	draw := func(sigma float64) float64 {
		f := 1 + sigma*rng.NormFloat64()
		if f < 0.01 {
			f = 0.01
			clipped++
		}
		return f
	}
	if v.RSigma > 0 {
		rF = make([][]float64, samples)
	}
	if v.CSigma > 0 {
		cF = make([][]float64, samples)
	}
	for s := 0; s < samples; s++ {
		if rF != nil {
			rF[s] = make([]float64, nets)
		}
		if cF != nil {
			cF[s] = make([]float64, nets)
		}
		for i := 0; i < nets; i++ {
			if rF != nil {
				rF[s][i] = draw(v.RSigma)
			}
			if cF != nil {
				cF[s][i] = draw(v.CSigma)
			}
		}
	}
	return rF, cF, clipped
}

// Analyze runs the multi-corner variation analysis of a design.
func Analyze(ctx context.Context, d *netlist.Design, opt Options) (*Report, error) {
	g, err := timing.NewGraph(d)
	if err != nil {
		return nil, err
	}
	return AnalyzeGraph(ctx, g, d.Name, opt)
}

// AnalyzeGraph is Analyze on a prebuilt timing graph (sharing its cached
// arena); name labels the report.
func AnalyzeGraph(ctx context.Context, g *timing.Graph, name string, opt Options) (*Report, error) {
	opt, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	va, err := g.VarArena(opt.Threshold, opt.Required)
	if err != nil {
		return nil, err
	}
	eps := va.Endpoints()
	rF, cF, clipped := drawFactors(va.Nets(), opt.Samples, opt.Variation, opt.Seed)
	rep := &Report{
		Design:    name,
		Threshold: va.Threshold(),
		Samples:   opt.Samples,
		Seed:      opt.Seed,
		Variation: opt.Variation,
		Clipped:   clipped,
	}
	// The sample-major arrival matrix, reused by every corner.
	arrAll := make([]float64, opt.Samples*len(eps))
	for _, c := range opt.Corners {
		sctx, op := trace.StartOp(ctx, opt.Obs, "mcd_corner_sweep", "corner", c.Name)
		cr, err := sweepCorner(sctx, va, c, eps, rF, cF, arrAll, opt.Samples, opt.Workers)
		op.SetError(err)
		op.End()
		if err != nil {
			return nil, fmt.Errorf("mcd: corner %q: %w", c.Name, err)
		}
		rep.Corners = append(rep.Corners, *cr)
	}
	worst := math.Inf(1)
	for _, cr := range rep.Corners {
		if cr.NominalWNS < worst {
			worst = cr.NominalWNS
			rep.WorstCorner = cr.Corner.Name
		}
	}
	return rep, nil
}

// parallel runs fn(0) … fn(workers-1), each on its own goroutine, and
// waits for all of them.
func parallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// sweepCorner runs one corner: a nominal pass (no derating) on va itself,
// then the per-sample DAG passes fanned across workers, each on its own clone
// writing disjoint sample rows of arrAll, then the per-endpoint statistics
// fanned across the same number of workers, each writing disjoint endpoint
// rows and sorting each endpoint's arrival column once for both of its
// distributions. Every value is computed from the same inputs in the same
// order whichever worker computes it, so the result is independent of the
// worker count.
func sweepCorner(ctx context.Context, va *timing.VarArena, c Corner, eps []timing.VarEndpoint, rF, cF [][]float64, arrAll []float64, samples, workers int) (*CornerResult, error) {
	if err := va.SetFactors(c.RScale, c.CScale, nil, nil); err != nil {
		return nil, err
	}
	if err := va.Propagate(ctx); err != nil {
		return nil, err
	}
	cr := &CornerResult{Corner: c, NominalWNS: math.Inf(1)}
	nomArr := make([]float64, len(eps))
	nomSlack := make([]float64, len(eps))
	for e, ep := range eps {
		nomArr[e] = va.Arrival(ep.Slot).Max
		nomSlack[e] = va.Slack(ep)
		if !math.IsInf(ep.Required, 1) {
			if nomSlack[e] < cr.NominalWNS {
				cr.NominalWNS = nomSlack[e]
			}
			if nomSlack[e] < 0 {
				cr.NominalTNS += nomSlack[e]
			}
		}
	}
	// arrAll is sample-major: each sample's row is one contiguous run written
	// by the worker that owns the sample, so two workers' writes meet only at
	// row boundaries, not in every cache line.
	wns := make([]float64, samples)
	tns := make([]float64, samples)
	crit := make([]int, samples)
	if workers > samples {
		workers = samples
	}
	errs := make([]error, workers)
	parallel(workers, func(w int) {
		wa := va
		if workers > 1 {
			wa = va.Clone()
		}
		for s := w; s < samples; s += workers {
			var rNet, cNet []float64
			if rF != nil {
				rNet = rF[s]
			}
			if cF != nil {
				cNet = cF[s]
			}
			if err := wa.SetFactors(c.RScale, c.CScale, rNet, cNet); err != nil {
				errs[w] = err
				return
			}
			if err := wa.Propagate(ctx); err != nil {
				errs[w] = err
				return
			}
			sWNS, sTNS, sCrit := math.Inf(1), 0.0, -1
			arrRow := arrAll[s*len(eps) : (s+1)*len(eps)]
			for e, ep := range eps {
				arrRow[e] = wa.Arrival(ep.Slot).Max
				sl := wa.Slack(ep)
				if math.IsInf(ep.Required, 1) {
					continue
				}
				// Strict < keeps the lowest endpoint index on ties — the
				// deterministic criticality attribution.
				if sl < sWNS {
					sWNS, sCrit = sl, e
				}
				if sl < 0 {
					sTNS += sl
				}
			}
			wns[s], tns[s], crit[s] = sWNS, sTNS, sCrit
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	critCount := make([]int, len(eps))
	constrained := false
	for s := 0; s < samples; s++ {
		if crit[s] >= 0 {
			critCount[crit[s]]++
			constrained = true
		}
	}
	if constrained {
		d := distOf(wns, nil)
		cr.WNS = &d
	}
	cr.TNS = distOf(tns, nil)
	// Worst nominal slack first; unconstrained after, by descending nominal
	// arrival; names break ties — the timing.Report endpoint order. Ranking
	// endpoint indices up front lets each statistics worker write its
	// endpoints straight into their final rows.
	order := make([]int, len(eps))
	for e := range order {
		order[e] = e
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case nomSlack[a] != nomSlack[b]:
			if nomSlack[a] < nomSlack[b] {
				return -1
			}
			return 1
		case nomArr[a] != nomArr[b]:
			if nomArr[a] > nomArr[b] {
				return -1
			}
			return 1
		case eps[a].Net != eps[b].Net:
			return strings.Compare(eps[a].Net, eps[b].Net)
		}
		return strings.Compare(eps[a].Output, eps[b].Output)
	})
	cr.Endpoints = make([]EndpointDist, len(eps))
	parallel(workers, func(w int) {
		col, buf := make([]float64, samples), make([]float64, samples)
		for r := w; r < len(order); r += workers {
			e := order[r]
			ep := eps[e]
			// col gathers endpoint e's arrivals in sample order; its one
			// sorted copy in buf serves the slack distribution too.
			for s := range col {
				col[s] = arrAll[s*len(eps)+e]
			}
			ed := EndpointDist{
				Net:            ep.Net,
				Output:         ep.Output,
				Required:       ep.Required,
				NominalArrival: nomArr[e],
				NominalSlack:   nomSlack[e],
				Arrival:        distOf(col, buf),
				Criticality:    float64(critCount[e]) / float64(samples),
			}
			if !math.IsInf(ep.Required, 1) {
				d := slackDistOf(ep.Required, col, buf)
				ed.Slack = &d
			}
			cr.Endpoints[r] = ed
		}
	})
	return cr, nil
}
