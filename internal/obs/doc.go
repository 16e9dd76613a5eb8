// Package obs is the repository's zero-dependency telemetry layer: a
// metrics registry (counters, gauges, fixed-bucket histograms with
// p50/p95/p99 snapshots) and lightweight span tracing, threaded through the
// timing core, the closure engine, the batch pool, and the rcserve HTTP
// surface.
//
// # Registry
//
// A Registry hands out named instruments, get-or-create style:
//
//	reg := obs.NewRegistry()
//	reg.Counter("closure_moves_accepted_total").Add(1)
//	reg.Gauge("rcserve_sessions_active").Set(float64(n))
//	reg.Histogram("http_request_seconds", obs.LatencyBuckets,
//	    "route", "POST /design").Observe(dt.Seconds())
//
// Instruments are keyed by name plus ordered label key/value pairs, so the
// same name with different labels yields distinct series — the Prometheus
// model, without the dependency. WritePrometheus renders the whole registry
// in text exposition format with deterministic (sorted) ordering, which is
// what rcserve's GET /metrics serves and what the golden test pins.
//
// # Nil safety
//
// Every method on a nil *Registry, *Counter, *Gauge, *Histogram, or *Span is
// a cheap no-op. Engine code therefore threads an optional registry without
// guarding call sites:
//
//	var reg *obs.Registry // nil: telemetry disabled
//	sp := obs.StartSpan(reg, "timing_propagate", "sched", "parallel")
//	... hot work ...
//	sp.End() // records into timing_propagate_seconds only when enabled
//
// BenchmarkArenaPropagationObs in internal/timing pins the disabled path to
// <2% overhead over the bare kernel; scripts/bench_trajectory.sh records the
// ratio as metrics_overhead in BENCH_timing.json.
//
// # Spans
//
// StartSpan/End is deliberately minimal tracing: one monotonic timestamp at
// start, one histogram observation at end, labels carried through. Phases of
// the engine (arena build, levelize, propagation per scheduler, dirty-cone
// re-propagation, closure rounds) each wrap themselves in a span, so
// GET /metrics exposes per-phase duration distributions without any
// collector infrastructure.
package obs
