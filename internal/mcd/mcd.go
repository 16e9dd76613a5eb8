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
// min(GOMAXPROCS, samples) workers each own a VarArena clone and write
// disjoint sample rows of one arrival matrix; the matrix and the clones are
// allocated once and reused by every corner. The per-endpoint statistics
// then fan out over the same workers, each owning a contiguous range of
// endpoints, which it takes in blocks of statsBlock:
//
//   - Moments: the worker walks the block's part of the matrix
//     sample-major, folding each row's values into the block's Welford
//     accumulators for arrival and slack, so the endpoints' division chains
//     interleave and rows are read in order. Each endpoint still sees its
//     samples in sample order.
//   - Quantiles: per endpoint, the worker gathers the arrival column and
//     selects in place only the ranks stats.Quantile reads for P50/P95/P99
//     and their mirrors n−1−r (selectRanks), instead of sorting it; mapping
//     the column reversed through req − x then puts the slack quantiles'
//     ranks in place too, so one selection serves both distributions.
//   - Rows: the worker writes each endpoint's row straight to its report
//     index, and every slack Dist of a corner lives in one slab.
//
// Every value is reduced from the same inputs in the same order whichever
// worker computes it, and the selected ranks hold exactly what a full sort
// would put there, so results are bit-identical for a given seed regardless
// of worker count, and to the sort-based statistics this replaced — the
// determinism and oracle tests pin both.
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
	"math/bits"
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
	// exactly, at any GOMAXPROCS.
	Seed int64
	// Threshold is the receiving gates' switching threshold (0 means 0.5).
	Threshold float64
	// Required is the default required arrival time for endpoints without an
	// explicit .require card; <= 0 leaves them unconstrained.
	Required float64
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

// quantiles are the levels a Dist reports as P50, P95 and P99. distSorted
// reads them, and quantileRanks derives from them the order statistics they
// read, so the two cannot drift apart.
var quantiles = [3]float64{0.50, 0.95, 0.99}

// quantileRanks returns, ascending and without repeats, every rank
// stats.Quantile reads for the levels in quantiles from a sample of n
// (⌊q(n−1)⌋ and ⌈q(n−1)⌉, computed as it computes them), together with each
// rank's mirror n−1−r, which the slack side reads (see mirrorSlack).
func quantileRanks(n int) []int {
	var ranks []int
	for _, q := range quantiles {
		pos := q * float64(n-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		ranks = append(ranks, lo, hi, n-1-lo, n-1-hi)
	}
	slices.Sort(ranks)
	return slices.Compact(ranks)
}

// distSorted assembles a Dist from accumulated moments and values ordered
// at the ranks quantileRanks names: stats.Quantile reads nothing else.
func distSorted(w *stats.Welford, sorted []float64) Dist {
	return Dist{
		Mean: w.Mean(), Std: w.Std(), Min: w.Min(), Max: w.Max(),
		P50: stats.Quantile(sorted, quantiles[0]),
		P95: stats.Quantile(sorted, quantiles[1]),
		P99: stats.Quantile(sorted, quantiles[2]),
	}
}

// distOf summarizes vals, which it reorders: moments in the given order,
// then the quantile ranks selected in place.
func distOf(vals []float64, ranks []int) Dist {
	var w stats.Welford
	for _, v := range vals {
		w.Add(v)
	}
	selectRanks(vals, ranks)
	return distSorted(&w, vals)
}

// mirrorSlack turns arrivals ordered at ranks r into slacks req − x ordered
// at ranks n−1−r: fl(req − x) is non-increasing in x, so reversing the
// column and mapping it through req − x puts at each mirrored rank exactly
// the value a sort of the slacks would, bit for bit. One selection thus
// serves both of an endpoint's distributions.
func mirrorSlack(req float64, col []float64) {
	for i, j := 0, len(col)-1; i <= j; i, j = i+1, j-1 {
		col[i], col[j] = req-col[j], req-col[i]
	}
}

// selectRanks permutes a so that a[r], for each r in ranks (ascending and
// in range), holds the value sort.Float64s would put there, bit for bit.
// A NaN or a zero in a falls back to that sort: NaN lies outside <'s order
// and the sort puts it first, and −0 and +0 compare equal but differ in
// bits, so only the sort itself places them as it does. Every other pair
// of equal values is bit-identical, so any correct selection agrees.
func selectRanks(a []float64, ranks []int) {
	for _, v := range a {
		if v != v || v == 0 {
			sort.Float64s(a)
			return
		}
	}
	selectIn(a, 0, ranks, 2*bits.Len(uint(len(a))))
}

// selectIn is selectRanks on the part a of the whole, whose first value has
// rank off. Wanted ranks among a's first or last 8 are placed by a partial
// insertion sort of that end (smallest, largest), which for random data
// costs about one comparison per value; the ranks left in between are found
// by quickselect, whose three-way partition settles the ranks in its equal
// band and whose loop descends only into sides that hold a wanted rank.
// After budget partitions the part is sorted outright, which bounds the
// worst case.
func selectIn(a []float64, off int, ranks []int, budget int) {
	for len(ranks) > 0 {
		if last := ranks[len(ranks)-1] - off; last < 8 {
			smallest(a, last+1)
			return
		}
		if first := ranks[0] - off; len(a)-first <= 8 {
			largest(a, len(a)-first)
			return
		}
		if len(a) <= 12 || budget == 0 {
			slices.Sort(a)
			return
		}
		budget--
		lt, gt := partition3(a)
		i, _ := slices.BinarySearch(ranks, off+lt)
		j, _ := slices.BinarySearch(ranks, off+gt)
		selectIn(a[:lt], off, ranks[:i], budget)
		a, off, ranks = a[gt:], off+gt, ranks[j:]
	}
}

// partition3 rearranges a around the median of its first, middle and last
// values into the values below it, those equal to it and those above it,
// and returns the bounds [lt, gt) of the equal band. Each of its two passes
// swaps unconditionally and adds the comparison's outcome as 0 or 1, which
// compiles to a set-on-condition instead of a branch that random data
// mispredicts half the time. Ties collapse into the band, so a column of
// equal values is settled in one partition.
func partition3(a []float64) (lt, gt int) {
	x, p, z := a[0], a[len(a)/2], a[len(a)-1]
	if x > p {
		x, p = p, x
	}
	if p > z {
		p = max(x, z)
	}
	for i, v := range a {
		a[i] = a[lt]
		a[lt] = v
		var below int
		if v < p {
			below = 1
		}
		lt += below
	}
	gt = lt
	for i := lt; i < len(a); i++ {
		v := a[i]
		a[i] = a[gt]
		a[gt] = v
		var equal int
		if v == p {
			equal = 1
		}
		gt += equal
	}
	return lt, gt
}

// smallest permutes a so that a[:k] holds its k smallest values in
// ascending order: an insertion sort that keeps only a k-value prefix.
func smallest(a []float64, k int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := min(i, k)
		if j == k {
			if !(v < a[k-1]) {
				continue
			}
			a[i] = a[k-1] // the displaced largest of the prefix
			j--
		}
		for ; j > 0 && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}

// largest permutes a so that a[len(a)−k:] holds its k largest values in
// ascending order, mirroring smallest.
func largest(a []float64, k int) {
	n := len(a)
	for i := n - 2; i >= 0; i-- {
		v := a[i]
		j := max(i, n-1-k)
		if j == n-1-k {
			if !(v > a[n-k]) {
				continue
			}
			a[i] = a[n-k]
			j++
		}
		for ; j < n-1 && a[j+1] < v; j++ {
			a[j] = a[j+1]
		}
		a[j] = v
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
	// The sample-major arrival matrix and the sample workers' views, reused
	// by every corner.
	sw := &sweep{
		va: va, eps: eps, rF: rF, cF: cF,
		samples: opt.Samples, workers: min(runtime.GOMAXPROCS(0), opt.Samples),
		ranks:  quantileRanks(opt.Samples),
		arrAll: make([]float64, opt.Samples*len(eps)),
		views:  []*timing.VarArena{va},
	}
	if sw.workers > 1 {
		sw.views = sw.views[:0]
		for range sw.workers {
			sw.views = append(sw.views, va.Clone())
		}
	}
	for _, c := range opt.Corners {
		sctx, op := trace.StartOp(ctx, opt.Obs, "mcd_corner_sweep", "corner", c.Name)
		cr, err := sw.corner(sctx, c)
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

// statsBlock is how many endpoints a statistics worker folds moments for in
// one sample-major pass: enough interleaved Welford chains to overlap their
// divisions, few enough that the block's accumulators stay on the stack and
// its column values in cache for the gathers that follow.
const statsBlock = 64

// sweep is what every corner of one analysis shares: the view, its
// endpoints and factor draws, and the buffers the corners reuse.
type sweep struct {
	va *timing.VarArena
	// views[w] runs sample worker w's passes: va itself when one worker
	// runs them all, else a clone per worker.
	views   []*timing.VarArena
	eps     []timing.VarEndpoint
	rF, cF  [][]float64
	samples int
	workers int
	ranks   []int // quantileRanks(samples)
	arrAll  []float64
}

// corner runs one corner: a nominal pass (no derating) on va itself, then
// the per-sample DAG passes fanned across workers, each on its own view
// writing disjoint sample rows of arrAll, then the per-endpoint statistics
// fanned across the same number of workers. Each statistics worker owns a
// contiguous range of endpoints and takes it in blocks: it folds the
// block's columns of arrAll into their moments row by row, sample-major, so
// the endpoints' Welford chains interleave; then, per endpoint, it gathers
// the arrival column, selects the quantile ranks in place, mirrors them
// into the slack ranks and writes the endpoint's row straight to its
// report index. Every value is computed from the same inputs in the same
// order whichever worker computes it, so the result is independent of the
// worker count.
func (sw *sweep) corner(ctx context.Context, c Corner) (*CornerResult, error) {
	va, eps, samples, workers := sw.va, sw.eps, sw.samples, sw.workers
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
	arrAll := sw.arrAll
	wns := make([]float64, samples)
	tns := make([]float64, samples)
	crit := make([]int, samples)
	errs := make([]error, workers)
	parallel(workers, func(w int) {
		wa := sw.views[w]
		for s := w; s < samples; s += workers {
			var rNet, cNet []float64
			if sw.rF != nil {
				rNet = sw.rF[s]
			}
			if sw.cF != nil {
				cNet = sw.cF[s]
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
		d := distOf(wns, sw.ranks)
		cr.WNS = &d
	}
	cr.TNS = distOf(tns, sw.ranks)
	// Worst nominal slack first; unconstrained after, by descending nominal
	// arrival; names break ties — the timing.Report endpoint order. The key
	// is total (a net names each output once), so an unstable sort is
	// deterministic. rank inverts order, so each statistics worker writes
	// its endpoints straight into their final rows.
	order := make([]int, len(eps))
	for e := range order {
		order[e] = e
	}
	slices.SortFunc(order, func(a, b int) int {
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
	rank := make([]int, len(eps))
	for r, e := range order {
		rank[e] = r
	}
	cr.Endpoints = make([]EndpointDist, len(eps))
	slab := make([]Dist, len(eps)) // every slack Dist of the corner
	parallel(workers, func(w int) {
		col := make([]float64, samples)
		for lo, hi := w*len(eps)/workers, (w+1)*len(eps)/workers; lo < hi; lo += statsBlock {
			n := min(statsBlock, hi-lo)
			var arrW, slackW [statsBlock]stats.Welford
			for s := 0; s < samples; s++ {
				for k, x := range arrAll[s*len(eps)+lo : s*len(eps)+lo+n] {
					arrW[k].Add(x)
					if req := eps[lo+k].Required; !math.IsInf(req, 1) {
						slackW[k].Add(req - x)
					}
				}
			}
			for k := range n {
				e := lo + k
				ep := eps[e]
				for s := range col {
					col[s] = arrAll[s*len(eps)+e]
				}
				selectRanks(col, sw.ranks)
				ed := &cr.Endpoints[rank[e]]
				*ed = EndpointDist{
					Net:            ep.Net,
					Output:         ep.Output,
					Required:       ep.Required,
					NominalArrival: nomArr[e],
					NominalSlack:   nomSlack[e],
					Arrival:        distSorted(&arrW[k], col),
					Criticality:    float64(critCount[e]) / float64(samples),
				}
				if !math.IsInf(ep.Required, 1) {
					mirrorSlack(ep.Required, col)
					slab[e] = distSorted(&slackW[k], col)
					ed.Slack = &slab[e]
				}
			}
		}
	})
	return cr, nil
}
