// Package trace is the repo's zero-dependency hierarchical tracer: per-request
// span trees with W3C trace-context interop and an in-process flight recorder.
//
// Where package obs answers "how long do closure runs take on average?", this
// package answers "where did THAT 3-second /design/{id}/close go?" — the two
// views come from one instrumentation point, StartOp, which opens an
// obs duration histogram and a trace child span together.
//
// # Model
//
// A Tracer mints traces (Tracer.Start, or Tracer.StartRemote to join an
// inbound traceparent). The root *Span travels by context; engine phases open
// children with StartSpan / StartOp, annotate them with SetAttr/Event/
// SetError, and End them. Ending the root seals the trace and hands it to the
// flight recorder. All of it is nil-safe: a nil Tracer, a nil *Span from an
// untraced context, and a nil *Op all make every call a no-op, so the
// disabled path costs one context lookup and one pointer test.
//
// Spans of one trace may complete from many goroutines; the per-trace
// collector is mutex-protected and span ids come from an atomic counter, so
// concurrent child spans are safe. Each trace retains at most
// Options.MaxSpans spans; excess completions are counted in Trace.Dropped
// rather than growing without bound.
//
// # Flight recorder
//
// The recorder keeps two rings: the last Capacity completed traces, and a
// separate pinned ring of SlowCapacity traces whose root exceeded
// SlowThreshold or which carried an error — a burst of fast healthy traffic
// can never evict the trace that explains an incident. Tracer.Recent lists
// both (deduplicated, newest first), Tracer.Get retrieves one by hex id.
// rcserve exposes them at GET /debug/traces and /debug/traces/{id}.
//
// # Interop
//
// ParseTraceparent / FormatTraceparent implement the W3C `traceparent`
// header (version 00), and WriteChrome renders retained traces as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing — also available
// as /debug/traces/{id}?format=chrome and `statime -trace out.json`.
package trace
