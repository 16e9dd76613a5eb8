package batch

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/randnet"
	"repro/internal/rctree"
)

// newAt builds an engine with a pool of procs workers: New sizes the pool
// from GOMAXPROCS, so that is set for the call and restored after it.
func newAt(procs int, opt Options) *Engine {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return New(opt)
}

// sequentialResults is the single-goroutine reference the engine must
// reproduce exactly, in order, regardless of worker count.
func sequentialResults(t *testing.T, jobs []Job) []Result {
	t.Helper()
	eng := newAt(1, Options{CacheSize: -1})
	return eng.Run(context.Background(), jobs)
}

func randomJobs(n int, seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Tree:       randnet.Tree(rng, randnet.DefaultConfig(20+rng.Intn(30))),
			Tag:        string(rune('a' + i%26)),
			Thresholds: []float64{0.1, 0.5, 0.9},
			Times:      []float64{10, 100},
			Checks:     []Check{{V: 0.5, T: 100}},
		}
	}
	return jobs
}

// TestRunDeterministic runs the same workload across several worker counts
// (under -race in CI) and demands bit-identical results in job order.
func TestRunDeterministic(t *testing.T) {
	jobs := randomJobs(200, 1)
	want := sequentialResults(t, jobs)
	for _, workers := range []int{2, 4, 8} {
		eng := newAt(workers, Options{})
		if eng.Workers() != workers {
			t.Fatalf("GOMAXPROCS %d: pool of %d workers", workers, eng.Workers())
		}
		got := eng.Run(context.Background(), jobs)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != i {
				t.Errorf("workers=%d: result %d has Index %d", workers, i, got[i].Index)
			}
			// CacheHit depends on scheduling and the reference engine
			// runs cache-free (so it has no Key); everything else must
			// match.
			g := got[i]
			g.CacheHit = want[i].CacheHit
			g.Key = want[i].Key
			if !reflect.DeepEqual(g, want[i]) {
				t.Errorf("workers=%d: result %d differs:\n got %+v\nwant %+v", workers, i, g, want[i])
			}
		}
	}
}

// TestCacheHits submits the same network many times — built with different
// node names and sibling orders — and checks that only one computation is
// paid for.
func TestCacheHits(t *testing.T) {
	mkTree := func(names [2]string, swap bool) *rctree.Tree {
		b := rctree.NewBuilder("in")
		add := func(k int) rctree.NodeID {
			r := []float64{15, 8}[k]
			id := b.Resistor(rctree.Root, names[k], r)
			b.Capacitor(id, []float64{2, 7}[k])
			b.Output(id)
			return id
		}
		if swap {
			add(1)
			add(0)
		} else {
			add(0)
			add(1)
		}
		tree, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	jobs := []Job{
		{Tree: mkTree([2]string{"x", "y"}, false), Thresholds: []float64{0.5}},
		{Tree: mkTree([2]string{"p", "q"}, false), Thresholds: []float64{0.5}},
		{Tree: mkTree([2]string{"u", "v"}, true), Thresholds: []float64{0.5}},
	}
	eng := newAt(1, Options{}) // serial so hit accounting is exact
	results := eng.Run(context.Background(), jobs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Key != results[0].Key {
			t.Fatalf("job %d has key %s, want shared key %s", i, res.Key, results[0].Key)
		}
	}
	if results[0].CacheHit || !results[1].CacheHit || !results[2].CacheHit {
		t.Errorf("cache hits = %v %v %v, want false true true",
			results[0].CacheHit, results[1].CacheHit, results[2].CacheHit)
	}
	stats := eng.CacheStats()
	if stats.Misses != 1 || stats.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss, 2 hits", stats)
	}

	// The memoized times must still be reported under each job's own node
	// names, with the declaration order preserved per job.
	if got := results[1].Outputs[0].Name; got != "p" {
		t.Errorf("job 1 first output = %q, want %q", got, "p")
	}
	if got := results[2].Outputs[0].Name; got != "v" {
		t.Errorf("job 2 first output = %q, want %q (swapped declaration order)", got, "v")
	}
	// Swapped construction attaches y-then-x, so v (the 8Ω/7 arm) comes
	// first; its times must equal job 0's matching arm y.
	if results[2].Outputs[0].Times != results[0].Outputs[1].Times {
		t.Errorf("structurally identical outputs disagree: %+v vs %+v",
			results[2].Outputs[0].Times, results[0].Outputs[1].Times)
	}
}

// TestCacheHitsConcurrent hammers one network from many workers; duplicate
// in-flight jobs must collapse onto a single computation and every result
// must agree (run with -race).
func TestCacheHitsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := randnet.Tree(rng, randnet.DefaultConfig(40))
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{Tree: tree, Thresholds: []float64{0.5}}
	}
	eng := newAt(8, Options{})
	results := eng.Run(context.Background(), jobs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if !reflect.DeepEqual(res.Outputs, results[0].Outputs) {
			t.Fatalf("job %d outputs differ from job 0", i)
		}
	}
	stats := eng.CacheStats()
	if stats.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 computation for 64 identical jobs", stats.Misses)
	}
	if stats.Hits != int64(len(jobs))-1 {
		t.Errorf("hits = %d, want %d", stats.Hits, len(jobs)-1)
	}
}

// TestCacheDisabled checks that a negative cache size really disables
// memoization.
func TestCacheDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tree := randnet.Tree(rng, randnet.DefaultConfig(10))
	eng := newAt(2, Options{CacheSize: -1})
	results := eng.Run(context.Background(), []Job{{Tree: tree}, {Tree: tree}})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.CacheHit {
			t.Errorf("job %d hit a disabled cache", i)
		}
	}
	if stats := eng.CacheStats(); stats.Hits != 0 || stats.Misses != 0 {
		t.Errorf("disabled cache counted %+v", stats)
	}
}

// TestSharedEngineConcurrentRuns issues two Run calls on one engine at
// once (run with -race): both must complete with correct, ordered results,
// and the engine-wide slots must bound processing without deadlocking.
func TestSharedEngineConcurrentRuns(t *testing.T) {
	jobsA := randomJobs(40, 20)
	jobsB := randomJobs(40, 21)
	wantA := sequentialResults(t, jobsA)
	wantB := sequentialResults(t, jobsB)
	eng := newAt(2, Options{})
	var wg sync.WaitGroup
	check := func(jobs []Job, want []Result) {
		defer wg.Done()
		got := eng.Run(context.Background(), jobs)
		for i := range got {
			got[i].CacheHit = want[i].CacheHit
			got[i].Key = want[i].Key
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("concurrent run: result %d differs", i)
			}
		}
	}
	wg.Add(2)
	go check(jobsA, wantA)
	go check(jobsB, wantB)
	wg.Wait()
}

// TestEvictionSkipsInFlight drives the cache directly: entries whose
// computation has not finished must never be evicted, or single-flight
// dedup would silently break.
func TestEvictionSkipsInFlight(t *testing.T) {
	c := newTimesCache(1)
	ea, _ := c.acquire("a") // in flight
	eb, _ := c.acquire("b") // in flight; nothing evictable yet
	if got := c.statsSnapshot().Entries; got != 2 {
		t.Fatalf("in-flight entries evicted: %d entries, want 2", got)
	}
	if e, compute := c.acquire("a"); compute || e != ea {
		t.Fatal("in-flight entry 'a' lost its single-flight identity")
	}
	c.release("a", ea) // completed: now evictable
	c.acquire("c")     // must evict "a", not the in-flight "b"
	if _, ok := c.entries["b"]; !ok {
		t.Fatal("in-flight entry 'b' was evicted")
	}
	if _, ok := c.entries["a"]; ok {
		t.Fatal("completed entry 'a' survived eviction")
	}
	c.release("b", eb)
	if s := c.statsSnapshot(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

// TestEviction bounds the cache and checks old entries fall out FIFO.
func TestEviction(t *testing.T) {
	jobs := randomJobs(10, 5)
	eng := newAt(1, Options{CacheSize: 3})
	eng.Run(context.Background(), jobs)
	stats := eng.CacheStats()
	if stats.Entries > 3 {
		t.Errorf("cache holds %d entries, bound is 3", stats.Entries)
	}
	if stats.Evictions == 0 {
		t.Errorf("expected evictions on a 10-job workload with a 3-entry cache")
	}
}

// TestChecksAndErrors covers per-job error isolation: a nil tree and an
// unknown check output fail their own jobs without disturbing neighbors.
func TestChecksAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tree := randnet.Tree(rng, randnet.DefaultConfig(15))
	out := tree.Name(tree.Outputs()[0])
	jobs := []Job{
		{Tree: tree, Checks: []Check{{Output: out, V: 0.5, T: 1e9}}},
		{Tree: nil},
		{Tree: tree, Checks: []Check{{Output: "no-such-node", V: 0.5, T: 1}}},
		{Tree: tree, Checks: []Check{{V: 0.5, T: -1}}}, // expands to all outputs
	}
	results := newAt(2, Options{}).Run(context.Background(), jobs)
	if results[0].Err != nil {
		t.Fatalf("job 0: %v", results[0].Err)
	}
	if v := results[0].Checks[0].Verdict; v != core.Passes {
		t.Errorf("deadline 1e9 verdict = %v, want passes", v)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Errorf("jobs 1 and 2 should fail, got %v and %v", results[1].Err, results[2].Err)
	}
	if results[3].Err != nil {
		t.Fatalf("job 3: %v", results[3].Err)
	}
	if len(results[3].Checks) != len(tree.Outputs()) {
		t.Errorf("wildcard check expanded to %d results, want %d", len(results[3].Checks), len(tree.Outputs()))
	}
	for _, c := range results[3].Checks {
		if c.Verdict != core.Fails {
			t.Errorf("deadline -1 at output %s = %v, want fails", c.Output, c.Verdict)
		}
	}
}

// TestRunCancellation cancels mid-batch and checks unstarted jobs are
// answered with the context error while the slice stays fully populated.
func TestRunCancellation(t *testing.T) {
	jobs := randomJobs(50, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := newAt(2, Options{}).Run(ctx, jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	canceled := 0
	for _, res := range results {
		if res.Err == context.Canceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("expected at least one job to be answered with context.Canceled")
	}
}

// TestAgainstDirectAnalysis cross-checks the engine against core.AnalyzeTree
// on every job of a random workload.
func TestAgainstDirectAnalysis(t *testing.T) {
	jobs := randomJobs(60, 8)
	results := newAt(4, Options{}).Run(context.Background(), jobs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		direct, err := core.AnalyzeTree(jobs[i].Tree)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) != len(res.Outputs) {
			t.Fatalf("job %d: %d outputs, want %d", i, len(res.Outputs), len(direct))
		}
		for k, d := range direct {
			if res.Outputs[k].Name != d.Name || res.Outputs[k].Times != d.Times {
				t.Errorf("job %d output %d: %+v, want %s %+v",
					i, k, res.Outputs[k], d.Name, d.Times)
			}
		}
	}
}
