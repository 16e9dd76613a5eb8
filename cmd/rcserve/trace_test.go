package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// traceNode mirrors the GET /debug/traces/{id} span-tree shape.
type traceNode struct {
	SpanID     string            `json:"spanId"`
	ParentID   string            `json:"parentId"`
	Name       string            `json:"name"`
	DurationUs int64             `json:"durationUs"`
	Attrs      map[string]string `json:"attrs"`
	Error      string            `json:"error"`
	Children   []*traceNode      `json:"children"`
}

// findSpan walks nodes depth-first for the first span with the given name.
func findSpan(nodes []*traceNode, name string) *traceNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if hit := findSpan(n.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestRequestTracingEndToEnd is the PR's acceptance test: a close request
// carrying an inbound W3C traceparent yields a retrievable span tree at
// /debug/traces/{id} whose middleware, closure, timing and WAL spans hang
// together with intact parent-child links.
func TestRequestTracingEndToEnd(t *testing.T) {
	srv, _ := walServer(t, t.TempDir()) // durability on, so WAL spans exist

	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)

	const (
		tid = "af7651916cd43dd8448eb211c80319c7"
		sid = "b7ad6b7169203331"
	)
	req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/close",
		strings.NewReader(`{"maxMoves": 16}`))
	req.Header.Set("traceparent", "00-"+tid+"-"+sid+"-01")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST close = %d: %s", w.Code, w.Body.String())
	}

	// The response joins the caller's trace: same trace id, the server's own
	// root span id, and a minted request id echoed alongside.
	tp := w.Result().Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+tid+"-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("response traceparent %q does not join trace %s", tp, tid)
	}
	if w.Result().Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}

	code, tree := serveJSON(t, srv, http.MethodGet, "/debug/traces/"+tid, "")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d: %v", tid, code, tree)
	}
	if tree["id"] != tid {
		t.Fatalf("trace id = %v, want %s", tree["id"], tid)
	}
	raw, _ := json.Marshal(tree["spans"])
	var roots []*traceNode
	if err := json.Unmarshal(raw, &roots); err != nil {
		t.Fatalf("span tree did not decode: %v", err)
	}

	root := findSpan(roots, "rcserve.request")
	if root == nil {
		t.Fatalf("no rcserve.request span in %s", raw)
	}
	if root.ParentID != sid {
		t.Errorf("request span parent = %q, want the inbound span id %s", root.ParentID, sid)
	}
	if root.Attrs["route"] != "POST /design/{id}/close" {
		t.Errorf("request span route attr = %q", root.Attrs["route"])
	}
	run := findSpan(root.Children, "closure_run")
	if run == nil {
		t.Fatalf("no closure_run span under the request in %s", raw)
	}
	if run.ParentID != root.SpanID {
		t.Errorf("closure_run parent = %q, want %q", run.ParentID, root.SpanID)
	}
	trial := findSpan(run.Children, "closure_trial")
	if trial == nil {
		t.Fatalf("no closure_trial span under closure_run")
	}
	if prop := findSpan(run.Children, "timing_propagate"); prop == nil {
		t.Fatalf("no timing_propagate span under closure_run")
	}
	// The accepted edits are logged durably off the request context: the
	// wal_append span parents to the request span and nests its fsync.
	app := findSpan(root.Children, "wal_append")
	if app == nil {
		t.Fatalf("no wal_append span under the request in %s", raw)
	}
	fsync := findSpan(app.Children, "wal_fsync")
	if fsync == nil {
		t.Fatal("no wal_fsync span under wal_append")
	}
	if fsync.ParentID != app.SpanID {
		t.Errorf("wal_fsync parent = %q, want %q", fsync.ParentID, app.SpanID)
	}

	// The flight-recorder list knows the trace, with its route attribute.
	code, list := serveJSON(t, srv, http.MethodGet, "/debug/traces", "")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", code)
	}
	found := false
	for _, raw := range list["traces"].([]any) {
		tr := raw.(map[string]any)
		if tr["id"] == tid {
			found = true
			if tr["route"] != "POST /design/{id}/close" {
				t.Errorf("trace summary route = %v", tr["route"])
			}
			if tr["spans"].(float64) < 4 {
				t.Errorf("trace summary spans = %v, want >= 4", tr["spans"])
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from /debug/traces list", tid)
	}
}

// TestTraceChromeFormat checks ?format=chrome serves trace-event JSON with
// the fields chrome://tracing and Perfetto require.
func TestTraceChromeFormat(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7})
	code, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	traces := srv.tracer.Recent()
	if len(traces) == 0 {
		t.Fatal("no recorded trace")
	}
	tid := traces[0].ID.String()

	req := httptest.NewRequest(http.MethodGet, "/debug/traces/"+tid+"?format=chrome", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("chrome export = %d: %s", w.Code, w.Body.String())
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   *float64          `json:"ts"`
			Dur  *float64          `json:"dur"`
			Pid  *int              `json:"pid"`
			Tid  *int              `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &file); err != nil {
		t.Fatalf("chrome JSON did not decode: %v", err)
	}
	if file.DisplayTimeUnit != "ms" || len(file.TraceEvents) == 0 {
		t.Fatalf("chrome file = %+v", file)
	}
	for i, ev := range file.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing required fields: %+v", i, ev)
		}
		if ev.Args["trace_id"] != tid {
			t.Errorf("event %d trace_id = %q, want %s", i, ev.Args["trace_id"], tid)
		}
	}
}

func TestTraceGetUnknown(t *testing.T) {
	srv := designServer()
	code, body := serveJSON(t, srv, http.MethodGet, "/debug/traces/deadbeef", "")
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d: %v", code, body)
	}
	if body["requestId"] == "" {
		t.Error("error body missing requestId")
	}
}

// TestRequestIDPropagation checks a well-formed inbound X-Request-Id is
// adopted (echoed on the response, quoted in error bodies) while junk is
// replaced with a minted id.
func TestRequestIDPropagation(t *testing.T) {
	srv := designServer()

	req := httptest.NewRequest(http.MethodGet, "/design/nope", nil)
	req.Header.Set("X-Request-Id", "client-abc.123_z")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if got := w.Result().Header.Get("X-Request-Id"); got != "client-abc.123_z" {
		t.Errorf("inbound id not echoed: %q", got)
	}
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["requestId"] != "client-abc.123_z" {
		t.Errorf("error body requestId = %v", body["requestId"])
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "evil id\nwith junk")
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	got := w.Result().Header.Get("X-Request-Id")
	if got == "" || strings.ContainsAny(got, " \n") || got == "evil id\nwith junk" {
		t.Errorf("junk id not replaced: %q", got)
	}
}

// TestLogFormats drives one request through text and JSON loggers and checks
// the request line's shape, plus the flag validation newLogger performs.
func TestLogFormats(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		var buf bytes.Buffer
		srv := designServer()
		switch format {
		case "text":
			srv.logger = slog.New(slog.NewTextHandler(&buf, nil))
		case "json":
			srv.logger = slog.New(slog.NewJSONHandler(&buf, nil))
		}
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		line := strings.TrimSpace(buf.String())
		if line == "" {
			t.Fatalf("%s: no request line logged", format)
		}
		switch format {
		case "text":
			for _, want := range []string{"msg=request", "route=\"GET /healthz\"", "status=200", "trace="} {
				if !strings.Contains(line, want) {
					t.Errorf("text line missing %s: %s", want, line)
				}
			}
		case "json":
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("json log line did not decode: %v\n%s", err, line)
			}
			if rec["msg"] != "request" || rec["route"] != "GET /healthz" || rec["status"] != float64(200) {
				t.Errorf("json line = %v", rec)
			}
			if tid, _ := rec["trace"].(string); len(tid) != 32 {
				t.Errorf("json line trace id = %v", rec["trace"])
			}
		}
	}

	if _, err := newLogger("yaml"); err == nil {
		t.Error("newLogger accepted an unknown format")
	}
	for _, ok := range []string{"", "text", "json"} {
		if l, err := newLogger(ok); err != nil || l == nil {
			t.Errorf("newLogger(%q) = %v, %v", ok, l, err)
		}
	}
}

// TestSanitizeRequestID pins the inbound-id vetting rules.
func TestSanitizeRequestID(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"abc123", "abc123"},
		{"A-b_c.9", "A-b_c.9"},
		{"", ""},
		{"has space", ""},
		{"tab\there", ""},
		{"non-ascii-é", ""},
		{strings.Repeat("x", 64), strings.Repeat("x", 64)},
		{strings.Repeat("x", 65), ""},
	}
	for _, c := range cases {
		if got := sanitizeRequestID(c.in); got != c.want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestTraceSlowPinning checks an error response pins its trace in the slow
// ring even after the recent ring churns past capacity.
func TestTraceSlowPinning(t *testing.T) {
	srv := designServer()
	// A 422 is a client error, not a server failure: it must NOT pin. A 500
	// must. Drive one of each, then flood the recent ring.
	code, _ := serveJSON(t, srv, http.MethodPost, "/design", `{"design": ""}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("empty design = %d", code)
	}
	if n := len(srv.tracer.Slow()); n != 0 {
		t.Fatalf("client error pinned %d traces", n)
	}
	for i := 0; i < 70; i++ { // churn past the default 64-trace recent ring
		serveJSON(t, srv, http.MethodGet, "/healthz", "")
	}
	if got := len(srv.tracer.Recent()); got != 64 {
		t.Errorf("recent ring = %d traces, want 64", got)
	}
}

// TestDesignCreateTraceSpans: a POST /design trace attributes each phase of
// the create — body decode, deck parse, session mount (with the levelize
// and propagate spans nested in it) and the WAL create — to a span of its
// own under the request.
func TestDesignCreateTraceSpans(t *testing.T) {
	srv, _ := walServer(t, t.TempDir())
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7})
	const tid = "0af7651916cd43dd8448eb211c80319c"
	req := httptest.NewRequest(http.MethodPost, "/design", bytes.NewReader(body))
	req.Header.Set("traceparent", "00-"+tid+"-b7ad6b7169203331-01")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %s", w.Code, w.Body.String())
	}
	code, tree := serveJSON(t, srv, http.MethodGet, "/debug/traces/"+tid, "")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d: %v", tid, code, tree)
	}
	raw, _ := json.Marshal(tree["spans"])
	var roots []*traceNode
	if err := json.Unmarshal(raw, &roots); err != nil {
		t.Fatalf("span tree did not decode: %v", err)
	}
	root := findSpan(roots, "rcserve.request")
	if root == nil {
		t.Fatalf("no rcserve.request span in %s", raw)
	}
	for _, name := range []string{"design_decode", "netlist_parse", "timing_session_mount", "wal_create"} {
		sp := findSpan(root.Children, name)
		if sp == nil {
			t.Errorf("no %s span under the request in %s", name, raw)
			continue
		}
		if sp.ParentID != root.SpanID {
			t.Errorf("%s parent = %q, want the request span %q", name, sp.ParentID, root.SpanID)
		}
	}
	if mount := findSpan(root.Children, "timing_session_mount"); mount != nil {
		for _, name := range []string{"timing_levelize", "timing_propagate"} {
			if findSpan(mount.Children, name) == nil {
				t.Errorf("no %s span under timing_session_mount in %s", name, raw)
			}
		}
	}
}

// TestDesignLockWait: a slack read queued behind a held design lock
// reports the wait as a design_lock_wait span under its request and in the
// design_lock_wait histogram.
func TestDesignLockWait(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	ent, ok := srv.designs.get(id)
	if !ok {
		t.Fatal("created design not in the store")
	}
	defer srv.designs.release(ent)
	hist := srv.obs.Histogram("design_lock_wait_seconds", obs.LatencyBuckets)
	before := hist.Snapshot()

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const hold = 200 * time.Millisecond
	ent.val.mu.Lock()
	done := make(chan int)
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/design/"+id+"/slack", nil)
		req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		done <- w.Code
	}()
	time.Sleep(hold)
	ent.val.mu.Unlock()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("GET /design/{id}/slack = %d", code)
	}

	after := hist.Snapshot()
	if after.Count != before.Count+1 {
		t.Fatalf("design_lock_wait observed %d waits for one request", after.Count-before.Count)
	}
	if wait := after.Sum - before.Sum; wait < hold.Seconds()/2 {
		t.Errorf("design_lock_wait recorded %.3fs behind a %v hold", wait, hold)
	}
	code, tree := serveJSON(t, srv, http.MethodGet, "/debug/traces/"+tid, "")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d: %v", tid, code, tree)
	}
	raw, _ := json.Marshal(tree["spans"])
	var roots []*traceNode
	if err := json.Unmarshal(raw, &roots); err != nil {
		t.Fatalf("span tree did not decode: %v", err)
	}
	var wait *traceNode
	if root := findSpan(roots, "rcserve.request"); root != nil {
		wait = findSpan(root.Children, "design_lock_wait")
	}
	if wait == nil {
		t.Fatalf("no design_lock_wait span under the request in %s", raw)
	}
	if us := wait.DurationUs; us < hold.Microseconds()/2 {
		t.Errorf("design_lock_wait span lasted %dµs behind a %v hold", us, hold)
	}
}
