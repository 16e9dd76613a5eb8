package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	rcdelay "repro"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/rctree"
)

const chipDeck = `
.design chip
.net drv
.input in
R1 in o 380
C1 o 0 0.04
.output o
.endnet
.net bus
.input in
U1 in far 1800 0.11
C1 far 0 0.013
.output far
.endnet
.stage drv o bus 25
.require bus far 700
.end
`

func designServer() *server {
	srv := newServer(rcdelay.NewBatchEngine(rcdelay.BatchOptions{}))
	srv.logger = slog.New(slog.DiscardHandler) // keep request lines out of test output
	return srv
}

func postDesign(t *testing.T, srv *server, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/design", strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var decoded map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("bad JSON (%d): %v\n%s", w.Code, err, w.Body.String())
	}
	return w.Code, decoded
}

func TestDesignCreateAndSlack(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "k": 2})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	if created["nets"].(float64) != 2 || created["levels"].(float64) != 2 {
		t.Errorf("summary = %v", created)
	}
	if created["design"] != "chip" || created["endpoints"].(float64) != 1 {
		t.Errorf("summary = %v", created)
	}
	if _, ok := created["wns"]; !ok {
		t.Errorf("constrained design missing wns: %v", created)
	}
	id := created["id"].(string)

	get := func(path string) (int, map[string]any) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		var decoded map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("bad JSON (%d): %v\n%s", w.Code, err, w.Body.String())
		}
		return w.Code, decoded
	}
	code, info := get("/design/" + id)
	if code != http.StatusOK || info["id"] != id {
		t.Fatalf("GET /design/{id} = %d: %v", code, info)
	}
	code, slack := get("/design/" + id + "/slack")
	if code != http.StatusOK {
		t.Fatalf("GET slack = %d: %v", code, slack)
	}
	report := slack["report"].(map[string]any)
	endpoints := report["endpoints"].([]any)
	if len(endpoints) != 1 {
		t.Fatalf("endpoints = %v", endpoints)
	}
	ep := endpoints[0].(map[string]any)
	if ep["net"] != "bus" || ep["output"] != "far" {
		t.Errorf("endpoint = %v", ep)
	}
	if _, ok := ep["arrival"].(map[string]any)["max"]; !ok {
		t.Errorf("endpoint missing arrival interval: %v", ep)
	}
	if paths := report["paths"].([]any); len(paths) != 1 {
		t.Errorf("paths = %v", paths)
	} else if hops := paths[0].(map[string]any)["hops"].([]any); len(hops) != 2 {
		t.Errorf("hops = %v", hops)
	}

	// Repeated POST of the same design re-analyzes on the arena core:
	// identical numbers, and the shared tree-batch engine is never consulted.
	before := srv.engine.CacheStats()
	code, second := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("second POST = %d", code)
	}
	if second["wns"] != created["wns"] {
		t.Errorf("second analysis wns %v != first %v", second["wns"], created["wns"])
	}
	if srv.engine.CacheStats() != before {
		t.Error("design analysis touched the tree-batch engine")
	}

	// DELETE then 404.
	req := httptest.NewRequest(http.MethodDelete, "/design/"+id, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE = %d", w.Code)
	}
	if code, _ := get("/design/" + id + "/slack"); code != http.StatusNotFound {
		t.Errorf("slack after delete = %d", code)
	}
}

func TestDesignCreateErrors(t *testing.T) {
	srv := designServer()
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty body", "{}", http.StatusUnprocessableEntity},
		{"bad json", "{", http.StatusBadRequest},
		{"unknown field", `{"designs": "x"}`, http.StatusBadRequest},
		{"bad deck", `{"design": "garbage"}`, http.StatusUnprocessableEntity},
		{"cycle", `{"design": ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a o a 1\n"}`, http.StatusUnprocessableEntity},
		{"bad threshold", fmt.Sprintf(`{"design": %q, "threshold": 2}`, ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postDesign(t, srv, tc.body)
			if code != tc.want {
				t.Errorf("code = %d, want %d (%v)", code, tc.want, body)
			}
			if _, ok := body["error"]; !ok {
				t.Errorf("no error field: %v", body)
			}
		})
	}
	if code, _ := postDesign(t, srv, `{"design": ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n"}`); code != http.StatusCreated {
		t.Errorf("unconstrained design rejected: %d", code)
	}
}

func TestDesignStoreTTLAndEviction(t *testing.T) {
	st := newDesignStore(storeConfig{ttl: time.Minute, max: 2})
	clock := time.Unix(0, 0)
	st.now = func() time.Time { return clock }
	a := st.create(&designSession{})
	st.release(a)
	clock = clock.Add(time.Second)
	b := st.create(&designSession{})
	st.release(b)
	clock = clock.Add(time.Second)
	// Third create evicts the LRU entry (a).
	c := st.create(&designSession{})
	st.release(c)
	if _, ok := st.get(a.id); ok {
		t.Error("LRU entry survived eviction")
	}
	if ent, ok := st.get(b.id); !ok {
		t.Error("fresh entry evicted")
	} else {
		st.release(ent)
	}
	// Expiry via TTL.
	clock = clock.Add(2 * time.Minute)
	if _, ok := st.get(c.id); ok {
		t.Error("expired entry served")
	}
	st.sweep()
	stats := st.stats()
	if stats["active"].(int) != 0 {
		t.Errorf("stats = %v", stats)
	}
	d := st.create(&designSession{})
	st.release(d)
	if !st.delete(d.id) {
		t.Error("delete failed")
	}
	if st.delete("ghost") {
		t.Error("deleted ghost")
	}
}

func TestHealthzIncludesDesigns(t *testing.T) {
	srv := designServer()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var decoded map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["designs"]; !ok {
		t.Errorf("healthz missing designs: %v", decoded)
	}
	if reqs := decoded["requests"].(map[string]any); reqs["design"] == nil {
		t.Errorf("healthz missing design counter: %v", reqs)
	}
}

func postEdits(t *testing.T, srv *server, id, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/edit", strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var decoded map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("bad JSON (%d): %v\n%s", w.Code, err, w.Body.String())
	}
	return w.Code, decoded
}

func TestDesignEdit(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "k": 2})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	wnsBefore := created["wns"].(float64)

	// Slowing the driver must reach the downstream endpoint through the
	// dirty cone and shrink the reported WNS.
	code, resp := postEdits(t, srv, id, `{"edits": [{"op": "setR", "net": "drv", "node": "o", "r": 800}]}`)
	if code != http.StatusOK {
		t.Fatalf("edit = %d: %v", code, resp)
	}
	if resp["applied"].(float64) != 1 || resp["gen"].(float64) != 1 {
		t.Errorf("edit response = %v", resp)
	}
	if resp["dirtyNets"].(float64) != 2 {
		t.Errorf("dirtyNets = %v, want 2 (drv + bus)", resp["dirtyNets"])
	}
	if wnsAfter := resp["wns"].(float64); wnsAfter >= wnsBefore {
		t.Errorf("wns %g not reduced from %g after slowdown", wnsAfter, wnsBefore)
	}

	// The slack view reflects the edit and carries the new generation.
	req := httptest.NewRequest(http.MethodGet, "/design/"+id+"/slack", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var slack map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &slack); err != nil {
		t.Fatal(err)
	}
	if slack["gen"].(float64) != 1 {
		t.Errorf("slack gen = %v", slack["gen"])
	}
	report := slack["report"].(map[string]any)
	if report["wns"].(float64) != resp["wns"].(float64) {
		t.Errorf("slack wns %v vs edit wns %v", report["wns"], resp["wns"])
	}

	// A failing edit reports the applied prefix and a 422.
	code, resp = postEdits(t, srv, id,
		`{"edits": [{"op": "setC", "net": "bus", "node": "far", "c": 0.02}, {"op": "setR", "net": "ghost", "node": "o", "r": 1}]}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("partial edit = %d: %v", code, resp)
	}
	if resp["applied"].(float64) != 1 || resp["error"] == nil {
		t.Errorf("partial edit response = %v", resp)
	}

	// Error shapes: no edits, malformed JSON, unknown design.
	if code, _ := postEdits(t, srv, id, `{"edits": []}`); code != http.StatusUnprocessableEntity {
		t.Errorf("empty edits = %d", code)
	}
	if code, _ := postEdits(t, srv, id, `{`); code != http.StatusBadRequest {
		t.Errorf("bad json = %d", code)
	}
	if code, _ := postEdits(t, srv, "nope", `{"edits": [{"op": "setR", "net": "drv", "node": "o", "r": 1}]}`); code != http.StatusNotFound {
		t.Errorf("unknown design = %d", code)
	}

	// The summary view tallies the applied edits.
	req = httptest.NewRequest(http.MethodGet, "/design/"+id, nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var info map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info["edits"].(float64) != 2 || info["gen"].(float64) != 2 {
		t.Errorf("summary after edits = %v", info)
	}
}

// TestDesignEditConcurrent hammers one design session with parallel edit and
// slack requests. Every slack response must be an internally consistent
// snapshot: its WNS/TNS must re-derive exactly from its own endpoint table,
// whatever interleaving produced it. Run under -race this also proves the
// per-session locking (a dedicated CI step does exactly that).
func TestDesignEditConcurrent(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)

	const editors, readers, iters = 4, 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, editors+readers)
	for e := 0; e < editors; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r := 300 + float64((e*iters+i)%17)*25
				body := fmt.Sprintf(`{"edits": [{"op": "setR", "net": "drv", "node": "o", "r": %g}]}`, r)
				req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/edit", strings.NewReader(body))
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("edit = %d: %s", w.Code, w.Body.String())
					return
				}
			}
		}(e)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := httptest.NewRequest(http.MethodGet, "/design/"+id+"/slack", nil)
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("slack = %d: %s", w.Code, w.Body.String())
					return
				}
				var resp struct {
					Gen    uint64 `json:"gen"`
					Report struct {
						WNS       *float64 `json:"wns"`
						TNS       float64  `json:"tns"`
						Endpoints []struct {
							Slack *float64 `json:"slack"`
						} `json:"endpoints"`
					} `json:"report"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("slack json: %v", err)
					return
				}
				wns, tns := 0.0, 0.0
				first := true
				for _, ep := range resp.Report.Endpoints {
					if ep.Slack == nil {
						continue
					}
					if first || *ep.Slack < wns {
						wns, first = *ep.Slack, false
					}
					if *ep.Slack < 0 {
						tns += *ep.Slack
					}
				}
				if !first {
					if resp.Report.WNS == nil || *resp.Report.WNS != wns {
						errs <- fmt.Errorf("gen %d: wns %v inconsistent with endpoint table min %g", resp.Gen, resp.Report.WNS, wns)
						return
					}
					if resp.Report.TNS != tns {
						errs <- fmt.Errorf("gen %d: tns %g inconsistent with endpoint table sum %g", resp.Gen, resp.Report.TNS, tns)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles the session must still agree with itself.
	req := httptest.NewRequest(http.MethodGet, "/design/"+id, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var info map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info["edits"].(float64) != editors*iters {
		t.Errorf("edits applied = %v, want %d", info["edits"], editors*iters)
	}
}

// failingDeck is a chip whose sink endpoint misses its required time — the
// closure endpoint's natural fixture.
const failingDeck = `
.design fail
.net drv
.input in
R1 in o 380
C1 o 0 0.04
.output o
.endnet
.net bus
.input in
R1 in n1 120
C1 n1 0 0.05
R2 n1 far 300
C2 far 0 0.08
R3 n1 stub 90
C3 stub 0 0.02
.output far
.endnet
.net sink
.input in
R1 in o 220
C1 o 0 0.06
.output o
.endnet
.stage drv o bus 25
.stage bus far sink 40
.require sink o 150
.end
`

func TestDesignClose(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	if created["wns"].(float64) >= 0 {
		t.Fatalf("fixture passes timing: %v", created)
	}
	id := created["id"].(string)

	req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/close",
		strings.NewReader(`{"maxMoves": 16}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST close = %d: %s", w.Code, w.Body.String())
	}
	var closed struct {
		ID     string `json:"id"`
		Gen    uint64 `json:"gen"`
		Report struct {
			Closed     bool    `json:"closed"`
			Reason     string  `json:"reason"`
			FinalWNS   float64 `json:"finalWns"`
			Cost       float64 `json:"cost"`
			EditScript string  `json:"editScript"`
			Trajectory []struct {
				Kind string `json:"kind"`
			} `json:"trajectory"`
			Pareto []struct {
				Cost float64 `json:"cost"`
				WNS  float64 `json:"wns"`
			} `json:"pareto"`
		} `json:"report"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &closed); err != nil {
		t.Fatalf("bad close JSON: %v\n%s", err, w.Body.String())
	}
	if closed.ID != id || closed.Gen == 0 {
		t.Errorf("close envelope = %+v", closed)
	}
	if !closed.Report.Closed || closed.Report.FinalWNS < 0 {
		t.Fatalf("engine did not close: %s", w.Body.String())
	}
	if len(closed.Report.Trajectory) == 0 || len(closed.Report.Pareto) < 2 || closed.Report.EditScript == "" {
		t.Errorf("report missing pieces: %s", w.Body.String())
	}

	// The accepted edits stayed applied: the session now reports WNS >= 0
	// at a bumped generation, and the edit counter absorbed them.
	req = httptest.NewRequest(http.MethodGet, "/design/"+id, nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var info map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info["wns"].(float64) < 0 {
		t.Errorf("session still failing after close: %v", info)
	}
	if info["gen"].(float64) != float64(closed.Gen) || info["edits"].(float64) == 0 {
		t.Errorf("session info = %v", info)
	}
	if got := srv.obs.Counter("rcserve_close_requests_total").Value(); got != 1 {
		t.Errorf("closeReqs = %d", got)
	}
	if got := srv.obs.Counter("rcserve_closure_moves_total").Value(); got != int64(len(closed.Report.Trajectory)) {
		t.Errorf("closureMoves = %d, want %d", got, len(closed.Report.Trajectory))
	}

	// An empty body is fine (defaults); an already-closed design answers
	// with zero moves.
	req = httptest.NewRequest(http.MethodPost, "/design/"+id+"/close", strings.NewReader(""))
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("re-close = %d: %s", w.Code, w.Body.String())
	}
	closed.Report.Trajectory = nil // the decoder leaves absent fields alone
	if err := json.Unmarshal(w.Body.Bytes(), &closed); err != nil {
		t.Fatal(err)
	}
	if !closed.Report.Closed || closed.Report.Reason != "no failing endpoints" || len(closed.Report.Trajectory) != 0 {
		t.Errorf("re-close report = %s", w.Body.String())
	}

	// Unknown design 404s; malformed body 400s.
	req = httptest.NewRequest(http.MethodPost, "/design/nope/close", strings.NewReader("{}"))
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("close unknown = %d", w.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/design/"+id+"/close", strings.NewReader("{bad"))
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("close malformed = %d", w.Code)
	}
	// The removed sequential field is an unknown field like any other.
	req = httptest.NewRequest(http.MethodPost, "/design/"+id+"/close", strings.NewReader(`{"sequential": true}`))
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "sequential") {
		t.Errorf("close with sequential = %d: %s", w.Code, w.Body.String())
	}
}

func TestDesignCorners(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	typWNS := created["wns"].(float64)

	post := func(body string) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/corners", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}
	code, raw := post(`{"samples": 16, "seed": 3, "rSigma": 0.05, "cSigma": 0.05}`)
	if code != http.StatusOK {
		t.Fatalf("POST corners = %d: %s", code, raw)
	}
	var resp struct {
		ID     string `json:"id"`
		Gen    uint64 `json:"gen"`
		Report struct {
			Samples     int    `json:"samples"`
			WorstCorner string `json:"worstCorner"`
			Corners     []struct {
				Corner struct {
					Name string `json:"name"`
				} `json:"corner"`
				NominalWNS float64 `json:"nominalWns"`
				Endpoints  []struct {
					Net         string  `json:"net"`
					Criticality float64 `json:"criticality"`
					Slack       *struct {
						Mean float64 `json:"mean"`
						Std  float64 `json:"std"`
					} `json:"slack"`
				} `json:"endpoints"`
			} `json:"corners"`
		} `json:"report"`
	}
	if err := json.Unmarshal([]byte(raw), &resp); err != nil {
		t.Fatalf("bad corners JSON: %v\n%s", err, raw)
	}
	if resp.ID != id || resp.Report.Samples != 16 || len(resp.Report.Corners) != 3 {
		t.Fatalf("corners envelope = %s", raw)
	}
	if resp.Report.WorstCorner != "slow" {
		t.Errorf("worst corner = %q, want slow", resp.Report.WorstCorner)
	}
	// The typ corner's nominal WNS is the session's own analysis: same
	// threshold, same required times, no derating.
	var typ *float64
	for i := range resp.Report.Corners {
		if resp.Report.Corners[i].Corner.Name == "typ" {
			typ = &resp.Report.Corners[i].NominalWNS
		}
	}
	if typ == nil || *typ != typWNS {
		t.Errorf("typ nominal WNS = %v, session reports %g", typ, typWNS)
	}

	// Same request, same answer: the sweep is deterministic in the seed.
	if _, again := post(`{"samples": 16, "seed": 3, "rSigma": 0.05, "cSigma": 0.05}`); again != raw {
		t.Error("identical corners requests disagreed")
	}

	// An empty body is a pure corner sweep: zero spread in every endpoint.
	code, raw = post("")
	if code != http.StatusOK {
		t.Fatalf("POST corners (empty) = %d: %s", code, raw)
	}
	var pure map[string]any
	if err := json.Unmarshal([]byte(raw), &pure); err != nil {
		t.Fatal(err)
	}
	for _, c := range pure["report"].(map[string]any)["corners"].([]any) {
		for _, e := range c.(map[string]any)["endpoints"].([]any) {
			ep := e.(map[string]any)
			if s, ok := ep["slack"].(map[string]any); ok && s["std"].(float64) != 0 {
				t.Errorf("pure corner sweep has nonzero slack spread: %v", ep)
			}
		}
	}

	if got := srv.obs.Counter("rcserve_corner_requests_total").Value(); got != 3 {
		t.Errorf("cornerReqs = %d, want 3", got)
	}

	// Bad requests: invalid knobs are 422, malformed bodies 400, unknown ids 404.
	if code, msg := post(`{"samples": -4}`); code != http.StatusUnprocessableEntity {
		t.Errorf("negative samples = %d: %s", code, msg)
	}
	if code, msg := post(`{"corners": [{"name": "zero", "rScale": 0, "cScale": 1}]}`); code != http.StatusUnprocessableEntity {
		t.Errorf("zero corner scale = %d: %s", code, msg)
	}
	if code, msg := post(`{"bogus": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field = %d: %s", code, msg)
	}
	// The removed sequential field is an unknown field like any other.
	if code, msg := post(`{"sequential": true}`); code != http.StatusBadRequest || !strings.Contains(msg, "sequential") {
		t.Errorf("corners with sequential = %d: %s", code, msg)
	}
	req := httptest.NewRequest(http.MethodPost, "/design/nope/corners", strings.NewReader(""))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown id = %d", w.Code)
	}
}

// TestDesignCornersSampleCap: the sweep allocates samples × endpoints
// arrivals and nets × samples factors per corner, so the handler refuses
// more than 4096 samples with a 422 before it materializes the design; the
// cap itself is served.
func TestDesignCornersSampleCap(t *testing.T) {
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	post := func(body string) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/corners", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}
	if code, raw := post(`{"samples": 4097}`); code != http.StatusUnprocessableEntity || !strings.Contains(raw, "4096") {
		t.Errorf("samples 4097 = %d: %.200s, want 422 naming the limit", code, raw)
	}
	if code, raw := post(`{"samples": 4096}`); code != http.StatusOK {
		t.Errorf("samples 4096 = %d: %.200s", code, raw)
	}
}

// TestDesignSlackBodyMatchesEnvelope pins the slack response body byte for
// byte to the envelope encoding/json writes for {"id", "gen", "report"}
// (keys sorted, two-space indent, trailing newline), on a design whose
// names need HTML escaping, before and after an edit.
func TestDesignSlackBodyMatchesEnvelope(t *testing.T) {
	srv := designServer()
	deck := strings.NewReplacer(".design chip", ".design <chip&co>", "bus", `b"us\`).Replace(chipDeck)
	body, _ := json.Marshal(map[string]any{"design": deck, "threshold": 0.7, "k": 2})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	for round := range 2 {
		if round == 1 {
			if code, resp := postEdits(t, srv, id, `{"edits": [{"op": "setR", "net": "drv", "node": "o", "r": 800}]}`); code != http.StatusOK {
				t.Fatalf("edit = %d: %v", code, resp)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/design/"+id+"/slack", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("GET slack = %d (%s): %s", w.Code, w.Header().Get("Content-Type"), w.Body.String())
		}

		e, ok := srv.designs.get(id)
		if !ok {
			t.Fatal("design vanished")
		}
		e.val.mu.Lock()
		gen, report := e.val.sess.Gen(), e.val.sess.Report()
		e.val.mu.Unlock()
		srv.designs.release(e)
		var want strings.Builder
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"id": id, "gen": gen, "report": report}); err != nil {
			t.Fatal(err)
		}
		if got := w.Body.String(); got != want.String() {
			t.Fatalf("round %d: slack body differs from the encoding/json envelope:\n%s\nwant:\n%s", round, got, want.String())
		}
		if !strings.Contains(w.Body.String(), `"design": "\u003cchip\u0026co\u003e"`) {
			t.Errorf("design name not HTML-escaped:\n%s", w.Body.String())
		}
	}
}

// summaryFromReport is the GET /design/{id} answer built from the fully
// assembled report, its verdicts counted here rather than by the
// CountByVerdict that Session.Headline shares.
func summaryFromReport(id string, gen uint64, edits int, r *rcdelay.DesignReport) designSummaryJSON {
	var p, u, f int
	for _, e := range r.Endpoints {
		switch {
		case math.IsInf(e.Required, 1):
		case e.Verdict == core.Passes:
			p++
		case e.Verdict == core.Fails:
			f++
		default:
			u++
		}
	}
	return designSummaryJSON{
		ID: id, Design: r.Design,
		Nets: r.Nets, Stages: r.Stages, Levels: r.Levels,
		Endpoints: len(r.Endpoints), Threshold: r.Threshold,
		Gen: gen, Edits: edits,
		WNS: finitePtr(r.WNS), TNS: r.TNS,
		Passes: p, Unknown: u, Fails: f,
	}
}

// TestDesignSummaryMatchesReport: after each of a run of random edit
// batches (value edits, output additions and removals, some batches failing
// part way), interleaved with slack reads, the GET /design/{id} body equals
// the body the fully assembled report gives, byte for byte.
func TestDesignSummaryMatchesReport(t *testing.T) {
	cfg := randnet.DefaultDesignConfig(3, 4)
	cfg.Net = randnet.DefaultConfig(8)
	d := randnet.DesignSeed(21, cfg)
	ref, err := rcdelay.AnalyzeDesign(context.Background(), d, rcdelay.DesignOptions{Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	latest := 0.0
	for _, ep := range ref.Endpoints {
		latest = math.Max(latest, ep.Arrival.Max)
	}
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": netlist.WriteDesign(d), "threshold": 0.7, "required": 0.35 * latest})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body.String())
		}
		return w
	}
	rng := rand.New(rand.NewSource(5))
	for batch := 0; batch < 60; batch++ {
		var edits []map[string]any
		for range 1 + rng.Intn(3) {
			n := d.Nets[rng.Intn(len(d.Nets))]
			node := n.Tree.Name(rctree.NodeID(1 + rng.Intn(n.Tree.NumNodes()-1)))
			switch rng.Intn(4) {
			case 0:
				edits = append(edits, map[string]any{"op": "scaleDriver", "net": n.Name, "factor": 0.5 + rng.Float64()})
			case 1:
				edits = append(edits, map[string]any{"op": "setC", "net": n.Name, "node": node, "c": 0.2 * rng.Float64()})
			case 2:
				edits = append(edits, map[string]any{"op": "addOutput", "net": n.Name, "node": node})
			default:
				edits = append(edits, map[string]any{"op": "removeOutput", "net": n.Name, "node": node})
			}
		}
		eb, _ := json.Marshal(map[string]any{"edits": edits})
		postEdits(t, srv, id, string(eb)) // a batch may stop part way; its prefix stays
		if rng.Intn(3) == 0 {
			get("/design/" + id + "/slack")
		}
		got := get("/design/" + id)
		e, ok := srv.designs.get(id)
		if !ok {
			t.Fatal("design vanished")
		}
		e.val.mu.Lock()
		want := summaryFromReport(id, e.val.sess.Gen(), e.val.edits, e.val.sess.Report())
		e.val.mu.Unlock()
		srv.designs.release(e)
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, want)
		if got.Body.String() != w.Body.String() {
			t.Fatalf("batch %d: GET /design/{id} body differs from the report's:\n%s\nwant:\n%s", batch, got.Body.String(), w.Body.String())
		}
	}
}
