package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSpanTreeConstruction(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.Start(context.Background(), "request")
	if root == nil {
		t.Fatal("Start returned nil span on live tracer")
	}
	root.SetAttr("route", "/design/{id}/close")

	ctx1, child := StartSpan(ctx, "closure_run")
	child.Event("move accepted")
	_, grand := StartSpan(ctx1, "timing_propagate")
	grand.End()
	child.End()
	root.End()

	traces := tr.Recent()
	if len(traces) != 1 {
		t.Fatalf("Recent() = %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.ID != root.TraceID() {
		t.Errorf("trace id = %s, want %s", got.ID, root.TraceID())
	}
	if got.Name != "request" {
		t.Errorf("trace name = %q, want request", got.Name)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(got.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range got.Spans {
		byName[s.Name] = s
	}
	if byName["timing_propagate"].Parent != byName["closure_run"].SpanID {
		t.Error("timing_propagate not parented under closure_run")
	}
	if byName["closure_run"].Parent != byName["request"].SpanID {
		t.Error("closure_run not parented under request root")
	}
	if !byName["request"].Parent.IsZero() {
		t.Error("root span should have zero parent")
	}
	if got.RootAttr("route") != "/design/{id}/close" {
		t.Errorf("RootAttr(route) = %q", got.RootAttr("route"))
	}
	if len(byName["closure_run"].Events) != 1 || byName["closure_run"].Events[0].Msg != "move accepted" {
		t.Errorf("closure_run events = %+v", byName["closure_run"].Events)
	}
	// Span ids must be unique and non-zero.
	seen := map[SpanID]bool{}
	for _, s := range got.Spans {
		if s.SpanID.IsZero() || seen[s.SpanID] {
			t.Errorf("bad span id %s", s.SpanID)
		}
		seen[s.SpanID] = true
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	// All of these must be no-ops, not panics.
	sp.SetAttr("k", "v")
	sp.Event("e")
	sp.SetError(errors.New("boom"))
	sp.End()
	if got := sp.TraceID(); !got.IsZero() {
		t.Errorf("nil span TraceID = %s", got)
	}
	if tr.Recent() != nil || tr.Slow() != nil {
		t.Error("nil tracer lists traces")
	}
	if _, ok := tr.Get("0123456789abcdef0123456789abcdef"); ok {
		t.Error("nil tracer Get ok")
	}
	// Untraced context: StartSpan and StartOp degrade to no-ops.
	ctx2, child := StartSpan(ctx, "child")
	if child != nil {
		t.Fatal("StartSpan on untraced ctx returned a span")
	}
	if ctx2 != ctx {
		t.Error("StartSpan on untraced ctx should return ctx unchanged")
	}
	_, op := StartOp(ctx, nil, "phase")
	if op != nil {
		t.Fatal("StartOp with nil registry and untraced ctx returned an op")
	}
	op.SetError(errors.New("x"))
	op.Span().Event("y")
	op.End()
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Options{})
	_, root := tr.Start(context.Background(), "r")
	root.End()
	root.End() // second End must not double-record or double-finish
	if n := len(tr.Recent()); n != 1 {
		t.Fatalf("Recent() = %d traces after double End, want 1", n)
	}
	if n := len(tr.Recent()[0].Spans); n != 1 {
		t.Fatalf("%d spans after double End, want 1", n)
	}
}

func TestRecorderRingAndPinning(t *testing.T) {
	tr := New(Options{Capacity: 4, SlowCapacity: 2, SlowThreshold: time.Hour})
	// One error trace: pinned despite being fast.
	_, errRoot := tr.Start(context.Background(), "errreq")
	errRoot.SetError(errors.New("exploded"))
	errRoot.End()
	errID := errRoot.TraceID()

	// Flood the recent ring with fast healthy traces.
	for i := 0; i < 10; i++ {
		_, sp := tr.Start(context.Background(), fmt.Sprintf("ok%d", i))
		sp.End()
	}

	recent := tr.Recent()
	if len(recent) != 5 { // 4 recent + 1 pinned error rotated out
		t.Fatalf("Recent() = %d, want 5", len(recent))
	}
	if recent[0].Name != "ok9" {
		t.Errorf("newest = %q, want ok9", recent[0].Name)
	}
	got, ok := tr.Get(errID.String())
	if !ok || !got.Err {
		t.Fatalf("pinned error trace not retrievable: ok=%v", ok)
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].ID != errID {
		t.Fatalf("Slow() = %d entries", len(slow))
	}
	if _, ok := tr.Get("not-a-trace-id"); ok {
		t.Error("Get accepted malformed id")
	}
}

// TestGetNewestWins: a client that reuses one trace id across requests
// (wrong, but common) gets its NEWEST trace from Get, agreeing with the
// newest-first list order.
func TestGetNewestWins(t *testing.T) {
	tr := New(Options{Capacity: 4, SlowThreshold: time.Hour})
	tid, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	sid, _ := ParseSpanID("00f067aa0ba902b7")
	for _, name := range []string{"first", "second"} {
		_, sp := tr.StartRemote(context.Background(), name, tid, sid)
		sp.End()
	}
	got, ok := tr.Get(tid.String())
	if !ok || got.Name != "second" {
		t.Fatalf("Get = %v (ok=%v), want the newest trace \"second\"", got, ok)
	}
}

func TestSlowThresholdPinning(t *testing.T) {
	tr := New(Options{Capacity: 1, SlowCapacity: 4, SlowThreshold: time.Nanosecond})
	_, sp := tr.Start(context.Background(), "slowreq")
	time.Sleep(time.Millisecond)
	sp.End()
	id := sp.TraceID()
	// Evict from the recent ring.
	_, sp2 := tr.Start(context.Background(), "other")
	time.Sleep(time.Millisecond)
	sp2.End()
	if got, ok := tr.Get(id.String()); !ok || got.Name != "slowreq" {
		t.Fatal("slow trace was evicted despite pinning")
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New(Options{MaxSpans: 8})
	ctx, root := tr.Start(context.Background(), "r")
	for i := 0; i < 20; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	got := tr.Recent()[0]
	if len(got.Spans) != 8 {
		t.Errorf("spans = %d, want 8 (capped)", len(got.Spans))
	}
	// 20 children + 1 root attempted, 8 kept.
	if got.Dropped != 13 {
		t.Errorf("Dropped = %d, want 13", got.Dropped)
	}
}

func TestRemoteJoin(t *testing.T) {
	inboundTID, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	inboundSID, _ := ParseSpanID("00f067aa0ba902b7")
	tr := New(Options{})
	_, root := tr.StartRemote(context.Background(), "request", inboundTID, inboundSID)
	root.End()
	got, ok := tr.Get("4bf92f3577b34da6a3ce929d0e0e4736")
	if !ok {
		t.Fatal("joined trace not retrievable by inbound id")
	}
	if got.Spans[0].Parent != inboundSID {
		t.Errorf("root parent = %s, want inbound %s", got.Spans[0].Parent, inboundSID)
	}
	// The remote parent is not a local span, so the root is still the tree root.
	if got.rootSpanID() != root.SpanID() {
		t.Error("remote-joined root not detected as tree root")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), SpanID{0, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	h := FormatTraceparent(tid, sid)
	gt, gs, ok := ParseTraceparent(h)
	if !ok || gt != tid || gs != sid {
		t.Fatalf("round trip failed: %q -> %s %s %v", h, gt, gs, ok)
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Errorf("rejected valid header %q", valid)
	}
	// Future version with extra fields is accepted per spec.
	if _, _, ok := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("rejected future-version header with trailing field")
	}
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",     // short trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0z",   // bad flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // v00 extra field
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed header %q", h)
		}
	}
}

func TestParseIDs(t *testing.T) {
	if _, ok := ParseTraceID("00000000000000000000000000000000"); ok {
		t.Error("accepted zero trace id")
	}
	if _, ok := ParseSpanID("xyz"); ok {
		t.Error("accepted short span id")
	}
	tid := NewTraceID()
	if got, ok := ParseTraceID(tid.String()); !ok || got != tid {
		t.Error("trace id string round trip failed")
	}
}

func TestStartOpBothHalves(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Options{})
	ctx, root := tr.Start(context.Background(), "r")
	opCtx, op := StartOp(ctx, reg, "timing_propagate", "core", "arena")
	if op == nil || op.Span() == nil {
		t.Fatal("StartOp with live registry+trace returned nil halves")
	}
	if FromContext(opCtx) != op.Span() {
		t.Error("StartOp context does not carry the child span")
	}
	op.End()
	root.End()

	// Histogram half recorded (same name+labels resolves to the same series).
	hist := reg.Histogram("timing_propagate_seconds", obs.LatencyBuckets, "core", "arena")
	if got := hist.Snapshot().Count; got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
	// Trace half recorded with labels as attrs.
	got := tr.Recent()[0]
	var found bool
	for _, s := range got.Spans {
		if s.Name == "timing_propagate" {
			found = true
			if len(s.Attrs) != 1 || s.Attrs[0] != (Attr{Key: "core", Value: "arena"}) {
				t.Errorf("span attrs = %+v", s.Attrs)
			}
		}
	}
	if !found {
		t.Fatal("timing_propagate span missing from trace")
	}

	// Metrics-only (untraced ctx): histogram still records.
	_, op2 := StartOp(context.Background(), reg, "timing_propagate", "core", "arena")
	if op2 == nil {
		t.Fatal("StartOp with registry but no trace returned nil")
	}
	op2.End()
	if got := hist.Snapshot().Count; got != 2 {
		t.Errorf("metrics-only op did not record: count = %d", got)
	}
}

// TestTraceHammer exercises concurrent span creation/annotation across many
// goroutines of many traces racing Recent/Get readers — run under -race in CI.
func TestTraceHammer(t *testing.T) {
	tr := New(Options{Capacity: 8, SlowCapacity: 4, SlowThreshold: time.Microsecond, MaxSpans: 256})
	const traces, workers, spansPer = 16, 8, 20
	var wg sync.WaitGroup
	for i := 0; i < traces; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, root := tr.Start(context.Background(), fmt.Sprintf("req%d", i))
			root.SetAttr("i", fmt.Sprint(i))
			var inner sync.WaitGroup
			for w := 0; w < workers; w++ {
				inner.Add(1)
				go func(w int) {
					defer inner.Done()
					for s := 0; s < spansPer; s++ {
						c, sp := StartSpan(ctx, "work")
						sp.SetAttr("w", fmt.Sprint(w))
						sp.Event("tick")
						if s%7 == 0 {
							sp.SetError(errors.New("transient"))
						}
						_, g := StartSpan(c, "inner")
						g.End()
						sp.End()
					}
				}(w)
			}
			inner.Wait()
			root.End()
		}(i)
	}
	// Readers race the writers.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, got := range tr.Recent() {
					_ = got.RootAttr("i")
					tr.Get(got.ID.String())
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	for _, got := range tr.Recent() {
		if got.Dropped == 0 && len(got.Spans) != workers*spansPer*2+1 {
			t.Errorf("trace %s: %d spans, want %d", got.Name, len(got.Spans), workers*spansPer*2+1)
		}
	}
}

// BenchmarkDisabledPath pins the cost of the no-op path: an untraced context
// through StartSpan must not allocate.
func BenchmarkDisabledPath(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := StartSpan(ctx, "work")
		sp.SetAttr("k", "v")
		sp.End()
		_ = c
	}
}
