// Package batch is the concurrent batch-analysis engine: it fans a batch
// of independent analysis jobs (an RC tree plus the thresholds, time points
// and deadline checks to evaluate) out across a pool of workers, memoizes
// repeated characteristic-time computations behind a content-hash cache,
// and collects the results in deterministic submission order.
//
// The unit of work is a Job; the per-job answer is a Result holding one
// OutputReport per designated output (characteristic times, delay-bound
// rows, voltage-bound rows) and one CheckResult per deadline certification.
// An Engine owns the worker pool and the cache:
//
//	eng := batch.New(batch.Options{})        // GOMAXPROCS workers
//	results := eng.Run(ctx, jobs)            // results[i] answers jobs[i]
//
// Concurrency model. Each worker owns a private core.Analyzer, so the
// characteristic-time scratch arrays are reused across jobs without being
// shared between goroutines. Trees are immutable and may appear in any
// number of jobs. Run fills a slice indexed by job position, so the output
// order is the input order, regardless of which worker finished first.
//
// Memoization. Two jobs whose trees describe the same network — same
// topology, element values and output placement, regardless of node names
// or construction order — share one characteristic-time computation. The
// cache key comes from netlist.CanonicalHash, a Merkle-style content hash
// with the same equivalence classes as the canonical deck of
// netlist.Canonical, and the cached value stores times by canonical node
// position, so a hit is translated back through each job's own node names.
// Concurrent jobs with the same key collapse into a single computation
// (duplicates wait rather than recompute).
package batch
