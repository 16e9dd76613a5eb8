package main

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	rcdelay "repro"
)

const fig7Deck = `.input in
R1 in n1 15
C1 n1 0 2
R2 n1 b 8
C2 b 0 7
U1 n1 n2 3 4
C3 n2 0 9
.output n2
`

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(rcdelay.NewBatchEngine(rcdelay.BatchOptions{}))
	srv.logger = slog.New(slog.DiscardHandler)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, decoded
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("status = %v, want ok", body["status"])
	}
	if _, ok := body["cache"].(map[string]any); !ok {
		t.Errorf("healthz lacks cache stats: %v", body)
	}
	if resp, err := http.Post(ts.URL+"/healthz", "application/json", nil); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /healthz status %d, want 405", resp.StatusCode)
		}
	}
}

// TestAnalyzeSingle posts the paper's Figure 7 deck and checks the times
// and a Figure 10 row against the published values.
func TestAnalyzeSingle(t *testing.T) {
	_, ts := testServer(t)
	status, body := post(t, ts.URL+"/analyze",
		`{"netlist": `+jsonString(fig7Deck)+`, "thresholds": [0.5], "times": [100]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, body)
	}
	outputs := body["outputs"].([]any)
	if len(outputs) != 1 {
		t.Fatalf("got %d outputs, want 1", len(outputs))
	}
	out := outputs[0].(map[string]any)
	if out["name"] != "n2" {
		t.Errorf("output name = %v, want n2", out["name"])
	}
	times := out["times"].(map[string]any)
	if tp := times["tp"].(float64); tp != 419 {
		t.Errorf("TP = %v, want 419", tp)
	}
	if td := times["td"].(float64); td != 363 {
		t.Errorf("TD = %v, want 363", td)
	}
	delay := out["delay"].([]any)[0].(map[string]any)
	if tmax := delay["tmax"].(float64); tmax < 314 || tmax > 315 {
		t.Errorf("TMax(0.5) = %v, want ~314.15", tmax)
	}
	voltage := out["voltage"].([]any)[0].(map[string]any)
	if vmin := voltage["vmin"].(float64); vmin < 0.16 || vmin > 0.17 {
		t.Errorf("VMin(100) = %v, want ~0.166", vmin)
	}
}

// TestAnalyzeBatchAndCache posts a two-job batch twice; the second request
// must be answered from cache (same engine behind the handler).
func TestAnalyzeBatchAndCache(t *testing.T) {
	srv, ts := testServer(t)
	body := `{"jobs": [
		{"tag": "deck", "netlist": ` + jsonString(fig7Deck) + `, "thresholds": [0.9]},
		{"tag": "expr", "expression": "(URC 15 0) WC (URC 0 2) WC (WB (URC 8 0) WC URC 0 7) WC (URC 3 4) WC URC 0 9"}
	]}`
	status, first := post(t, ts.URL+"/analyze", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, first)
	}
	results := first["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	r0 := results[0].(map[string]any)
	r1 := results[1].(map[string]any)
	if r0["tag"] != "deck" || r1["tag"] != "expr" {
		t.Errorf("job order not preserved: %v, %v", r0["tag"], r1["tag"])
	}
	// The deck and the expression describe the same network, so they share
	// a content-hash key (the expression tree's node names differ; the
	// canonical form erases that).
	if r0["key"] != r1["key"] {
		t.Errorf("equivalent networks got different keys:\n%v\n%v", r0["key"], r1["key"])
	}
	status, _ = post(t, ts.URL+"/analyze", body)
	if status != http.StatusOK {
		t.Fatalf("second request status %d", status)
	}
	stats := srv.engine.CacheStats()
	if stats.Misses != 1 {
		t.Errorf("misses = %d, want 1 (all four jobs describe one network)", stats.Misses)
	}
	if stats.Hits != 3 {
		t.Errorf("hits = %d, want 3", stats.Hits)
	}
}

func TestCertify(t *testing.T) {
	_, ts := testServer(t)
	status, body := post(t, ts.URL+"/certify",
		`{"netlist": `+jsonString(fig7Deck)+`, "checks": [
			{"output": "n2", "v": 0.5, "t": 100},
			{"output": "n2", "v": 0.5, "t": 250},
			{"output": "n2", "v": 0.5, "t": 400}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, body)
	}
	if _, hasOutputs := body["outputs"]; hasOutputs {
		t.Errorf("certify response leaked analysis outputs: %v", body)
	}
	checks := body["checks"].([]any)
	want := []string{"fails", "unknown", "passes"}
	for i, w := range want {
		c := checks[i].(map[string]any)
		if c["verdict"] != w {
			t.Errorf("check %d verdict = %v, want %s", i, c["verdict"], w)
		}
	}
}

// TestErrorIsolation checks malformed jobs fail alone in a batch, and that
// a malformed single request reports 422.
func TestErrorIsolation(t *testing.T) {
	_, ts := testServer(t)
	status, body := post(t, ts.URL+"/analyze", `{"jobs": [
		{"netlist": "not a deck"},
		{"expression": "URC 15 9"},
		{}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-job errors", status)
	}
	results := body["results"].([]any)
	if e := results[0].(map[string]any)["error"]; e == nil || e == "" {
		t.Error("bad deck did not report a per-job error")
	}
	if e, ok := results[1].(map[string]any)["error"]; ok {
		t.Errorf("valid job caught neighbor's error: %v", e)
	}
	if e := results[2].(map[string]any)["error"]; e == nil || e == "" {
		t.Error("empty job did not report a per-job error")
	}

	status, _ = post(t, ts.URL+"/analyze", `{"netlist": "not a deck"}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("single bad deck status %d, want 422", status)
	}
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(`{"unknown_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d, want 400", resp.StatusCode)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
