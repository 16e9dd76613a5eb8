package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsExposition: after a /design + /close round trip, GET /metrics
// carries the per-route HTTP histograms, the engine-phase timing spans, and
// the rcserve request counters — the acceptance checklist for the
// observability surface, driven through the public HTTP interface only.
func TestMetricsExposition(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)

	req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/close", strings.NewReader("{}"))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /design/{id}/close = %d: %s", w.Code, w.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := w.Body.String()
	for _, want := range []string{
		// Per-route middleware series.
		`http_requests_total{route="POST /design",code="201"} 1`,
		`http_requests_total{route="POST /design/{id}/close",code="200"} 1`,
		`http_request_seconds_count{route="POST /design"} 1`,
		`http_request_seconds_bucket{route="POST /design/{id}/close",le="+Inf"} 1`,
		// rcserve handler counters.
		`rcserve_design_requests_total 2`,
		`rcserve_close_requests_total 1`,
		// Engine-phase spans threaded through DesignOptions/ClosureOptions.
		"timing_levelize_seconds_count",
		"timing_arena_build_seconds_count",
		"timing_propagate_seconds_count",
		"timing_eco_apply_seconds_count",
		"closure_run_seconds_count 1",
		"closure_moves_accepted_total",
		// Sampled gauges.
		"rcserve_designs_active 1",
		"rcserve_uptime_seconds",
		"# TYPE http_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The closure run repaired the design, so the live WNS gauge is >= 0.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "closure_wns ") {
			wns, err := strconv.ParseFloat(line[len("closure_wns "):], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if wns < 0 {
				t.Errorf("closure_wns = %v after a closing run", wns)
			}
			return
		}
	}
	t.Error("/metrics missing closure_wns gauge")
}

// TestMetricsGCRows: /metrics carries the process's GC cycle and heap
// allocation totals, read at scrape time, so a create that allocates and a
// forced collection both show between two scrapes. They and the cache hit
// and miss totals are typed as counters.
func TestMetricsGCRows(t *testing.T) {
	srv := designServer()
	scrape := func() (cycles, allocs float64) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		body := w.Body.String()
		for _, name := range []string{"rcserve_gc_cycles_total", "rcserve_heap_allocs_bytes_total", "rcserve_cache_hits", "rcserve_cache_misses"} {
			if !strings.Contains(body, "# TYPE "+name+" counter\n") {
				t.Fatalf("/metrics does not type %s as a counter:\n%s", name, body)
			}
		}
		vals := map[string]float64{}
		for _, line := range strings.Split(body, "\n") {
			name, v, ok := strings.Cut(line, " ")
			if ok && (name == "rcserve_gc_cycles_total" || name == "rcserve_heap_allocs_bytes_total") {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				vals[name] = f
			}
		}
		if len(vals) != 2 {
			t.Fatalf("/metrics lacks the GC rows: %v", vals)
		}
		return vals["rcserve_gc_cycles_total"], vals["rcserve_heap_allocs_bytes_total"]
	}
	cycles0, allocs0 := scrape()
	deck := strings.Repeat("* pad\n", 1<<15) + failingDeck
	body, _ := json.Marshal(map[string]any{"design": deck, "threshold": 0.7})
	if code, created := postDesign(t, srv, string(body)); code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	runtime.GC()
	cycles1, allocs1 := scrape()
	if cycles1 <= cycles0 {
		t.Errorf("rcserve_gc_cycles_total %v -> %v across runtime.GC", cycles0, cycles1)
	}
	if allocs1-allocs0 < float64(len(deck)) {
		t.Errorf("rcserve_heap_allocs_bytes_total grew %v across a create of a %d-byte deck", allocs1-allocs0, len(deck))
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data map[string]any
}

// readSSE parses an SSE stream into its events.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = sseEvent{name: line[len("event: "):]}
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			events = append(events, cur)
		}
	}
	return events
}

// TestDesignCloseStream: POST /design/{id}/close?stream=1 emits start, then
// one move event per accepted repair in acceptance order, then done — and
// the done event agrees with the session state a follow-up query reads.
func TestDesignCloseStream(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)

	req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/close?stream=1", strings.NewReader("{}"))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stream close = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	events := readSSE(t, w.Body)
	if len(events) < 3 {
		t.Fatalf("stream carried %d events, want start + moves + done:\n%s", len(events), w.Body.String())
	}
	if events[0].name != "start" {
		t.Errorf("first event = %q, want start", events[0].name)
	}
	if events[0].data["wns"].(float64) >= 0 {
		t.Errorf("start wns = %v, want failing", events[0].data["wns"])
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("last event = %q, want done", last.name)
	}
	moves := events[1 : len(events)-1]
	for i, ev := range moves {
		if ev.name != "move" {
			t.Fatalf("event %d = %q, want move", i+1, ev.name)
		}
		if int(ev.data["seq"].(float64)) != i+1 {
			t.Errorf("move %d carries seq %v", i+1, ev.data["seq"])
		}
	}
	if !last.data["closed"].(bool) || last.data["reason"] != "met" {
		t.Errorf("done event = %v", last.data)
	}
	if int(last.data["moves"].(float64)) != len(moves) {
		t.Errorf("done moves = %v, stream carried %d", last.data["moves"], len(moves))
	}
	if last.data["wns"].(float64) < 0 {
		t.Errorf("done wns = %v, want >= 0", last.data["wns"])
	}

	// The accepted moves stayed applied: the session reports repaired slack.
	req = httptest.NewRequest(http.MethodGet, "/design/"+id, nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var info map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info["wns"].(float64) < 0 || info["edits"].(float64) == 0 {
		t.Errorf("session after streamed close = %v", info)
	}
}

// cancelAfterFirstMove is a ResponseRecorder that cancels the request
// context as soon as the first move event is flushed — a deterministic
// stand-in for a client that disconnects mid-stream.
type cancelAfterFirstMove struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c *cancelAfterFirstMove) Write(b []byte) (int, error) {
	n, err := c.ResponseRecorder.Write(b)
	if strings.Contains(c.Body.String(), "event: move") {
		c.cancel()
	}
	return n, err
}

// TestDesignCloseStreamDisconnect: a client disconnect mid-stream cancels
// the closure run through the request context. The engine stops with reason
// "cancelled" after the move in flight, and the already-accepted prefix
// stays applied to the session.
func TestDesignCloseStreamDisconnect(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/close?stream=1", strings.NewReader("{}"))
	req = req.WithContext(ctx)
	rec := &cancelAfterFirstMove{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	srv.ServeHTTP(rec, req)

	events := readSSE(t, rec.Body)
	if len(events) < 2 {
		t.Fatalf("stream carried %d events:\n%s", len(events), rec.Body.String())
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("last event = %q, want done", last.name)
	}
	if last.data["reason"] != "cancelled" || last.data["closed"].(bool) {
		t.Errorf("done after disconnect = %v, want reason cancelled", last.data)
	}
	if last.data["error"] == "" {
		t.Errorf("done after disconnect carries no error: %v", last.data)
	}
	moveCount := 0
	for _, ev := range events {
		if ev.name == "move" {
			moveCount++
		}
	}
	if moveCount == 0 {
		t.Fatal("no move observed before the cancellation")
	}
	if int(last.data["moves"].(float64)) != moveCount {
		t.Errorf("done reports %v moves, stream carried %d", last.data["moves"], moveCount)
	}

	// The accepted prefix stayed applied: edits > 0 at a bumped generation.
	req = httptest.NewRequest(http.MethodGet, "/design/"+id, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var info map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info["edits"].(float64) != float64(moveCount) {
		t.Errorf("session edits = %v after %d streamed moves", info["edits"], moveCount)
	}
}

// TestReadyzDrain: /readyz answers 200 until the drain flag flips, then 503
// with the draining reason — the signal handler's contract with load
// balancers.
func TestReadyzDrain(t *testing.T) {
	srv := designServer()
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("readyz = %d before drain", w.Code)
	}
	srv.draining.Store(true)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d during drain, want 503", w.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["ready"] != false || body["reason"] != "draining" {
		t.Errorf("drain body = %v", body)
	}
}

// TestRequestLogging: the middleware writes one structured line per request
// with the matched route and status.
func TestRequestLogging(t *testing.T) {
	srv := designServer()
	var buf strings.Builder
	srv.logger = slog.New(slog.NewTextHandler(&buf, nil))
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	line := buf.String()
	for _, want := range []string{`route="GET /healthz"`, "status=200", "method=GET", "id="} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
	// Unmatched paths are labeled so junk URLs cannot mint unbounded series.
	buf.Reset()
	req = httptest.NewRequest(http.MethodGet, "/no/such/route", nil)
	srv.ServeHTTP(httptest.NewRecorder(), req)
	if !strings.Contains(buf.String(), "route=unmatched") {
		t.Errorf("404 log line missing unmatched route: %s", buf.String())
	}
	if srv.obs.Counter("http_requests_total", "route", "unmatched", "code", "404").Value() != 1 {
		t.Error("unmatched 404 not counted")
	}
}
