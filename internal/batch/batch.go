package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/rctree"
)

// Check is one deadline certification: does the named output reach voltage
// V by time T? An empty Output applies the check to every designated output
// of the job's tree.
type Check struct {
	Output string
	V, T   float64
}

// CheckResult is the verdict of one expanded Check.
type CheckResult struct {
	Output  string
	V, T    float64
	Verdict core.Verdict
}

// Job is one unit of batch work: a tree plus the evaluations to run on it.
// Thresholds and Times may be empty (the report then carries characteristic
// times only). The tree is read, never written; the same *rctree.Tree may
// back any number of jobs.
type Job struct {
	Tree       *rctree.Tree
	Tag        string    // caller correlation label, echoed in the Result
	Thresholds []float64 // delay-table rows (TMin/TMax per threshold)
	Times      []float64 // voltage-table rows (VMin/VMax per time)
	Checks     []Check   // deadline certifications
}

// OutputReport is the analysis of one designated output.
type OutputReport struct {
	Name    string
	Times   rctree.Times
	Delay   []core.DelayRow
	Voltage []core.VoltageRow
}

// Result answers one Job. Outputs follow the tree's output-declaration
// order; Checks follow the job's check order (a check with empty Output
// expands to one CheckResult per output). Key is the content hash under
// which the analysis was memoized (empty when the engine's cache is
// disabled), and CacheHit reports whether another job had already paid
// for it.
type Result struct {
	Index    int
	Tag      string
	Key      string
	CacheHit bool
	Outputs  []OutputReport
	Checks   []CheckResult
	Err      error
}

// Options configures an Engine. The zero value is ready for production use.
type Options struct {
	// CacheSize bounds the memoization cache (entries). 0 means the
	// DefaultCacheSize; negative disables caching entirely.
	CacheSize int
}

// DefaultCacheSize bounds the memoization cache when Options.CacheSize is 0.
const DefaultCacheSize = 4096

// Engine is a reusable batch-analysis engine: a worker pool of
// runtime.GOMAXPROCS(0) at New plus a shared memoization cache. Engines are
// safe for concurrent use; a single Engine should be shared so independent
// callers benefit from each other's cache entries. The worker bound is
// engine-wide: concurrent Run calls share the same slots, so total
// CPU-bound concurrency never exceeds Workers no matter how many callers
// are active (excess jobs queue).
type Engine struct {
	workers int
	slots   chan struct{} // engine-wide concurrency permits, cap == workers
	cache   *timesCache
}

// New returns an Engine with the given options.
func New(opt Options) *Engine {
	w := runtime.GOMAXPROCS(0)
	var c *timesCache
	switch {
	case opt.CacheSize == 0:
		c = newTimesCache(DefaultCacheSize)
	case opt.CacheSize > 0:
		c = newTimesCache(opt.CacheSize)
	}
	return &Engine{workers: w, slots: make(chan struct{}, w), cache: c}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// CacheStats snapshots the cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.statsSnapshot() }

// Run analyzes every job and returns results[i] answering jobs[i]. Workers
// claim jobs from a shared feed, so completion order is nondeterministic,
// but the returned slice is not: position i always holds job i's answer.
// If ctx is canceled, jobs not yet started complete with Err = ctx.Err().
func (e *Engine) Run(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	feed := make(chan int)
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			analyzer := core.NewAnalyzer()
			for i := range feed {
				e.slots <- struct{}{}
				results[i] = e.process(analyzer, i, jobs[i])
				<-e.slots
			}
		}()
	}
	ctxErr := error(nil)
feedLoop:
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			for j := i; j < len(jobs); j++ {
				results[j] = Result{Index: j, Tag: jobs[j].Tag, Err: ctxErr}
			}
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()
	return results
}

// process runs one job on one worker. The analyzer is worker-private; the
// cache is the only shared state and is internally synchronized.
func (e *Engine) process(analyzer *core.Analyzer, index int, job Job) Result {
	res := Result{Index: index, Tag: job.Tag}
	if job.Tree == nil {
		res.Err = fmt.Errorf("batch: job %d has no tree", index)
		return res
	}
	var results []core.Result
	if e.cache == nil {
		// Caching disabled: analyze directly, no hashing, no Key.
		var err error
		results, err = analyzer.Analyze(job.Tree)
		if err != nil {
			res.Err = err
			return res
		}
	} else {
		var err error
		results, err = e.memoized(analyzer, &res, job.Tree)
		if err != nil {
			res.Err = err
			return res
		}
	}

	var bounds map[string]*core.Bounds // only checks need by-name lookup
	if len(job.Checks) > 0 {
		bounds = make(map[string]*core.Bounds, len(results))
	}
	res.Outputs = make([]OutputReport, 0, len(results))
	for _, r := range results {
		if bounds != nil {
			bounds[r.Name] = r.Bounds
		}
		rep := OutputReport{Name: r.Name, Times: r.Times}
		if len(job.Thresholds) > 0 {
			rep.Delay = r.Bounds.DelayTable(job.Thresholds)
		}
		if len(job.Times) > 0 {
			rep.Voltage = r.Bounds.VoltageTable(job.Times)
		}
		res.Outputs = append(res.Outputs, rep)
	}
	for _, chk := range job.Checks {
		if chk.Output == "" {
			for _, r := range results {
				res.Checks = append(res.Checks, CheckResult{
					Output: r.Name, V: chk.V, T: chk.T, Verdict: r.Bounds.OK(chk.V, chk.T),
				})
			}
			continue
		}
		b, ok := bounds[chk.Output]
		if !ok {
			res.Err = fmt.Errorf("batch: job %d: check references unknown output %q", index, chk.Output)
			return res
		}
		res.Checks = append(res.Checks, CheckResult{
			Output: chk.Output, V: chk.V, T: chk.T, Verdict: b.OK(chk.V, chk.T),
		})
	}
	return res
}

// memoized returns the per-output analysis of the tree through the cache:
// a miss computes and publishes the characteristic times by canonical node
// position, a hit translates the memoized times back through this tree's
// own node names and declaration order. Bound evaluators are cheap to
// rebuild; only the O(n)-per-output time passes are worth memoizing.
func (e *Engine) memoized(analyzer *core.Analyzer, res *Result, t *rctree.Tree) ([]core.Result, error) {
	key, canon := netlist.CanonicalHash(t)
	res.Key = key
	entry, compute := e.cache.acquire(key)
	if compute {
		results, err := analyzer.Analyze(t)
		if err != nil {
			entry.err = err
		} else {
			entry.times = make(map[int]rctree.Times, len(results))
			for _, r := range results {
				entry.times[canon[r.Output]] = r.Times
			}
		}
		e.cache.release(key, entry)
		return results, entry.err
	}
	res.CacheHit = true
	<-entry.ready
	if entry.err != nil {
		return nil, entry.err
	}
	results := make([]core.Result, 0, len(t.Outputs()))
	for _, o := range t.Outputs() {
		tm, ok := entry.times[canon[o]]
		if !ok {
			return nil, fmt.Errorf("batch: no cached times for output %q", t.Name(o))
		}
		b, err := core.New(tm)
		if err != nil {
			return nil, fmt.Errorf("batch: output %q: %w", t.Name(o), err)
		}
		results = append(results, core.Result{Output: o, Name: t.Name(o), Times: tm, Bounds: b})
	}
	return results, nil
}
