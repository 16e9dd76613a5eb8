package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netlist"
)

// walServer mounts a design server over dir's durability store and replays
// whatever is already persisted there — one call is "boot the process".
func walServer(t *testing.T, dir string) (*server, int) {
	t.Helper()
	srv := designServer()
	if err := srv.openWAL(dir); err != nil {
		t.Fatal(err)
	}
	n, err := srv.recoverDesigns(context.Background())
	if err != nil {
		t.Fatalf("recover designs: %v", err)
	}
	return srv, n
}

func serveJSON(t *testing.T, srv *server, method, path, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var decoded map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s %s: bad JSON (%d): %s", method, path, w.Code, w.Body.String())
	}
	return w.Code, decoded
}

// crashEdit returns the i-th edit of the deterministic 200-edit workload the
// crash tests drive against chipDeck — every edit succeeds, so the live
// session and the WAL agree on exactly what was applied.
func crashEdit(i int) string {
	switch i % 4 {
	case 0:
		return fmt.Sprintf(`{"op": "setR", "net": "drv", "node": "o", "r": %g}`, 300+float64(i%37)*5)
	case 1:
		return `{"op": "addC", "net": "bus", "node": "far", "c": 0.001}`
	case 2:
		return fmt.Sprintf(`{"op": "setLine", "net": "bus", "node": "far", "r": %g, "c": %g}`,
			1700+float64(i%23)*10, 0.1+float64(i%7)*0.01)
	default:
		return fmt.Sprintf(`{"op": "scaleDriver", "net": "drv", "factor": %g}`, 0.9+float64(i%5)*0.05)
	}
}

// slackNumbers pulls WNS/TNS and the per-endpoint slack map out of a
// /design/{id}/slack response.
func slackNumbers(t *testing.T, body map[string]any) (wns, tns float64, slacks map[string]float64) {
	t.Helper()
	report, ok := body["report"].(map[string]any)
	if !ok {
		t.Fatalf("no report in %v", body)
	}
	wns, _ = report["wns"].(float64)
	tns, _ = report["tns"].(float64)
	slacks = map[string]float64{}
	eps, _ := report["endpoints"].([]any)
	for _, raw := range eps {
		ep := raw.(map[string]any)
		key := fmt.Sprintf("%v.%v", ep["net"], ep["output"])
		if s, ok := ep["slack"].(float64); ok {
			slacks[key] = s
		}
	}
	return wns, tns, slacks
}

// TestDesignCrashRecovery is the PR's acceptance test: a 200-edit session,
// the process killed with a torn append in flight, a fresh process booted on
// the same data dir — the recovered design's WNS/TNS and every endpoint
// slack match the never-killed session to 1e-9.
func TestDesignCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1, n := walServer(t, dir)
	if n != 0 {
		t.Fatalf("fresh dir recovered %d designs", n)
	}
	srv1.snapEvery = 16 // several rotations inside 200 edits

	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "required": 700})
	code, created := serveJSON(t, srv1, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)

	for i := 0; i < 200; i++ {
		code, resp := serveJSON(t, srv1, http.MethodPost, "/design/"+id+"/edit",
			`{"edits": [`+crashEdit(i)+`]}`)
		if code != http.StatusOK || resp["applied"].(float64) != 1 {
			t.Fatalf("edit %d = %d: %v", i, code, resp)
		}
	}
	code, slackBody := serveJSON(t, srv1, http.MethodGet, "/design/"+id+"/slack", "")
	if code != http.StatusOK {
		t.Fatalf("GET slack = %d: %v", code, slackBody)
	}
	wantWNS, wantTNS, wantSlacks := slackNumbers(t, slackBody)

	// Kill the process mid-append: srv1 is abandoned as-is (no drain, no
	// final snapshot) and the live log gains a torn partial record, exactly
	// what a kill -9 during an acknowledged-later edit leaves behind.
	logs, err := filepath.Glob(filepath.Join(dir, id, "wal.*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("want exactly one live log, got %v (%v)", logs, err)
	}
	f, err := os.OpenFile(logs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("setR drv.o 12"); err != nil { // no newline: torn
		t.Fatal(err)
	}
	f.Close()

	srv2, n := walServer(t, dir)
	if n != 1 {
		t.Fatalf("recovered %d designs, want 1", n)
	}
	code, info := serveJSON(t, srv2, http.MethodGet, "/design/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("GET recovered design = %d: %v", code, info)
	}
	if got := info["edits"].(float64); got != 200 {
		t.Errorf("recovered edit count = %v, want 200", got)
	}
	code, slackBody2 := serveJSON(t, srv2, http.MethodGet, "/design/"+id+"/slack", "")
	if code != http.StatusOK {
		t.Fatalf("GET recovered slack = %d", code)
	}
	gotWNS, gotTNS, gotSlacks := slackNumbers(t, slackBody2)

	const tol = 1e-9
	if math.Abs(gotWNS-wantWNS) > tol || math.Abs(gotTNS-wantTNS) > tol {
		t.Errorf("recovered WNS/TNS (%g, %g), want (%g, %g)", gotWNS, gotTNS, wantWNS, wantTNS)
	}
	if len(gotSlacks) != len(wantSlacks) {
		t.Fatalf("recovered %d endpoints, want %d", len(gotSlacks), len(wantSlacks))
	}
	for key, want := range wantSlacks {
		if got, ok := gotSlacks[key]; !ok || math.Abs(got-want) > tol {
			t.Errorf("endpoint %s slack = %g, want %g", key, got, want)
		}
	}

	// The recovered session keeps working — and keeps logging.
	code, resp := serveJSON(t, srv2, http.MethodPost, "/design/"+id+"/edit",
		`{"edits": [`+crashEdit(0)+`]}`)
	if code != http.StatusOK || resp["applied"].(float64) != 1 {
		t.Fatalf("post-recovery edit = %d: %v", code, resp)
	}
}

// TestDesignLazyRecoveryAfterEviction: LRU eviction drops the in-memory
// session but not the WAL; the next lookup transparently rebuilds it instead
// of answering 404.
func TestDesignLazyRecoveryAfterEviction(t *testing.T) {
	dir := t.TempDir()
	srv, _ := walServer(t, dir)
	srv.designs = newDesignStore(storeConfig{ttl: time.Hour, max: 1})

	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "required": 700})
	code, a := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("create A = %d: %v", code, a)
	}
	aID := a["id"].(string)
	if _, resp := serveJSON(t, srv, http.MethodPost, "/design/"+aID+"/edit",
		`{"edits": [{"op": "setR", "net": "drv", "node": "o", "r": 200}]}`); resp["applied"].(float64) != 1 {
		t.Fatalf("edit A: %v", resp)
	}

	code, _ = serveJSON(t, srv, http.MethodPost, "/design", string(body)) // evicts A (max 1)
	if code != http.StatusCreated {
		t.Fatalf("create B = %d", code)
	}
	if got := srv.designs.stats()["evicted"]; got != int64(1) {
		t.Fatalf("evicted = %v, want 1", got)
	}

	code, info := serveJSON(t, srv, http.MethodGet, "/design/"+aID, "")
	if code != http.StatusOK {
		t.Fatalf("GET evicted design = %d: %v (lazy recovery failed)", code, info)
	}
	if got := info["edits"].(float64); got != 1 {
		t.Errorf("recovered edits = %v, want 1", got)
	}
	if got := srv.obs.Counter("rcserve_designs_recovered_total").Value(); got != 1 {
		t.Errorf("recovered counter = %d, want 1", got)
	}
}

// TestDesignDeleteRemovesDurableState: DELETE retires the WAL too —
// otherwise the next lookup (or the next boot) would resurrect the design.
func TestDesignDeleteRemovesDurableState(t *testing.T) {
	dir := t.TempDir()
	srv, _ := walServer(t, dir)
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7})
	_, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	id := created["id"].(string)

	if code, resp := serveJSON(t, srv, http.MethodDelete, "/design/"+id, ""); code != http.StatusOK {
		t.Fatalf("DELETE = %d: %v", code, resp)
	}
	if _, err := os.Stat(filepath.Join(dir, id)); !os.IsNotExist(err) {
		t.Error("design dir survived DELETE")
	}
	if code, _ := serveJSON(t, srv, http.MethodGet, "/design/"+id, ""); code != http.StatusNotFound {
		t.Errorf("GET deleted design = %d, want 404 (no resurrection)", code)
	}
	_, n := walServer(t, dir)
	if n != 0 {
		t.Errorf("restart recovered %d designs after DELETE, want 0", n)
	}
}

// TestDesignSnapshotEvery: crossing the -snapshot-every threshold rotates
// the log onto a fresh snapshot, keeping replay bounded; the edit total
// survives the rotations.
func TestDesignSnapshotEvery(t *testing.T) {
	dir := t.TempDir()
	srv, _ := walServer(t, dir)
	srv.snapEvery = 4

	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "required": 700})
	_, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	id := created["id"].(string)
	for i := 0; i < 10; i++ {
		if code, resp := serveJSON(t, srv, http.MethodPost, "/design/"+id+"/edit",
			`{"edits": [`+crashEdit(i)+`]}`); code != http.StatusOK {
			t.Fatalf("edit %d = %d: %v", i, code, resp)
		}
	}
	// 10 edits at snapshot-every 4: rotations at 4 and 8, so the live pair
	// is seq 3 with a 2-edit tail.
	if _, err := os.Stat(filepath.Join(dir, id, "snap.3.ckt")); err != nil {
		t.Errorf("expected snap.3.ckt after two rotations: %v", err)
	}

	srv2, n := walServer(t, dir)
	if n != 1 {
		t.Fatalf("recovered %d designs", n)
	}
	_, info := serveJSON(t, srv2, http.MethodGet, "/design/"+id, "")
	if got := info["edits"].(float64); got != 10 {
		t.Errorf("edit total across rotations = %v, want 10", got)
	}
}

// TestSnapshotAllFoldsTails: the shutdown drain (and the periodic
// snapshotter) folds every pending tail into a snapshot, so a clean restart
// replays zero log lines.
func TestSnapshotAllFoldsTails(t *testing.T) {
	dir := t.TempDir()
	srv, _ := walServer(t, dir)
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "required": 700})
	_, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	id := created["id"].(string)
	for i := 0; i < 3; i++ {
		serveJSON(t, srv, http.MethodPost, "/design/"+id+"/edit", `{"edits": [`+crashEdit(i)+`]}`)
	}
	n, err := srv.snapshotAll()
	if err != nil || n != 1 {
		t.Fatalf("snapshotAll = %d, %v; want 1, nil", n, err)
	}
	// The tail was folded: the live log is seq 2 and empty.
	raw, err := os.ReadFile(filepath.Join(dir, id, "wal.2.log"))
	if err != nil || len(raw) != 0 {
		t.Errorf("post-snapshot log: %d bytes, %v; want empty", len(raw), err)
	}
	srv2, _ := walServer(t, dir)
	_, info := serveJSON(t, srv2, http.MethodGet, "/design/"+id, "")
	if got := info["edits"].(float64); got != 3 {
		t.Errorf("edits after snapshot-only recovery = %v, want 3", got)
	}
}

// TestDesignCloseLogsMoves: accepted closure moves are ECO edits like any
// other — a restart replays the repair, so the recovered WNS matches the
// post-closure WNS.
func TestDesignCloseLogsMoves(t *testing.T) {
	dir := t.TempDir()
	srv, _ := walServer(t, dir)
	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	code, closed := serveJSON(t, srv, http.MethodPost, "/design/"+id+"/close", `{"maxMoves": 16}`)
	if code != http.StatusOK {
		t.Fatalf("close = %d: %v", code, closed)
	}
	_, info := serveJSON(t, srv, http.MethodGet, "/design/"+id, "")
	wantWNS, hadWNS := info["wns"].(float64)

	srv2, n := walServer(t, dir)
	if n != 1 {
		t.Fatalf("recovered %d designs", n)
	}
	_, info2 := serveJSON(t, srv2, http.MethodGet, "/design/"+id, "")
	gotWNS, gotHad := info2["wns"].(float64)
	if hadWNS != gotHad || math.Abs(gotWNS-wantWNS) > 1e-9 {
		t.Errorf("recovered WNS = %v (%v), want %v (%v)", gotWNS, gotHad, wantWNS, hadWNS)
	}
	if info2["edits"] != info["edits"] {
		t.Errorf("recovered edits = %v, want %v", info2["edits"], info["edits"])
	}
}

// stallingWriter is a response recorder that holds the first SSE move
// frame for stall, as a client that stops reading holds the handler.
type stallingWriter struct {
	*httptest.ResponseRecorder
	stall   time.Duration
	stalled bool
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	if !w.stalled && bytes.HasPrefix(p, []byte("event: move")) {
		w.stalled = true
		time.Sleep(w.stall)
	}
	return w.ResponseRecorder.Write(p)
}

// TestDesignCloseDeadline: a /close run that outlives computeBudget stops
// before its next round and answers "cancelled" with the moves it had
// accepted. The design lock is free again, and a restart replays the
// accepted prefix from the WAL.
func TestDesignCloseDeadline(t *testing.T) {
	prev := computeBudget
	t.Cleanup(func() { computeBudget = prev })
	dir := t.TempDir()
	srv, _ := walServer(t, dir)
	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)

	// Buffered: a spent budget cuts the run before its first round.
	computeBudget = 0
	code, closed := serveJSON(t, srv, http.MethodPost, "/design/"+id+"/close", `{"maxMoves": 16}`)
	report, _ := closed["report"].(map[string]any)
	if code != http.StatusUnprocessableEntity || report["reason"] != "cancelled" || report["trajectory"] != nil ||
		!strings.Contains(fmt.Sprint(closed["error"]), "deadline exceeded") {
		t.Fatalf("close past its budget = %d: %v", code, closed)
	}

	// Streamed: the first accepted move's frame stalls the run past its
	// budget, so it stops after exactly that move (the chip needs two).
	computeBudget = 200 * time.Millisecond
	w := &stallingWriter{ResponseRecorder: httptest.NewRecorder(), stall: 300 * time.Millisecond}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/design/"+id+"/close?stream=1", strings.NewReader(`{"maxMoves": 16}`)))
	stream := w.Body.String()
	i := strings.Index(stream, "event: done\ndata: ")
	if i < 0 {
		t.Fatalf("no done event:\n%s", stream)
	}
	var done closeDoneEvent
	if err := json.Unmarshal([]byte(strings.TrimSpace(stream[i+len("event: done\ndata: "):])), &done); err != nil {
		t.Fatal(err)
	}
	if done.Reason != "cancelled" || done.Moves != 1 || !strings.Contains(done.Error, "deadline exceeded") {
		t.Fatalf("stalled stream's done event = %+v", done)
	}

	ent, ok := srv.designs.get(id)
	if !ok {
		t.Fatal("design gone")
	}
	if !ent.val.mu.TryLock() {
		t.Fatal("the design lock is still held after the close answered")
	}
	ent.val.mu.Unlock()
	srv.designs.release(ent)
	_, info := serveJSON(t, srv, http.MethodGet, "/design/"+id, "")
	if info["edits"].(float64) == 0 || info["gen"].(float64) != float64(done.Gen) {
		t.Fatalf("after the cut-off close: %v, done %+v", info, done)
	}

	srv2, _ := walServer(t, dir)
	_, info2 := serveJSON(t, srv2, http.MethodGet, "/design/"+id, "")
	if info2["wns"] != info["wns"] || info2["tns"] != info["tns"] || info2["edits"] != info["edits"] {
		t.Errorf("recovered %v, want the accepted prefix %v", info2, info)
	}
}

// TestDesignCornersDeadline: a corners sweep that outlives computeBudget
// stops at its next propagation and answers 422 "deadline exceeded" with no
// partial report; with the budget back, the same request answers 200 with a
// report.
func TestDesignCornersDeadline(t *testing.T) {
	prev := computeBudget
	t.Cleanup(func() { computeBudget = prev })
	srv := designServer()
	body, _ := json.Marshal(map[string]any{"design": failingDeck, "threshold": 0.7})
	code, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)

	computeBudget = 0
	code, swept := serveJSON(t, srv, http.MethodPost, "/design/"+id+"/corners", `{"samples": 8}`)
	if _, partial := swept["report"]; code != http.StatusUnprocessableEntity || partial ||
		!strings.Contains(fmt.Sprint(swept["error"]), "deadline exceeded") {
		t.Fatalf("corners past its budget = %d: %v", code, swept)
	}
	computeBudget = prev
	if code, swept = serveJSON(t, srv, http.MethodPost, "/design/"+id+"/corners", `{"samples": 8}`); code != http.StatusOK || swept["report"] == nil {
		t.Fatalf("corners within its budget = %d: %v", code, swept)
	}
}

// TestDesignRecoveryAfterOutputAndStructuralEdits: with a snapshot every two
// edits, rotations land right after output-only edits (addOutput,
// removeOutput) and after grows and prunes. Each snapshot re-renders only
// the nets whose trees changed, so a change to a net's output set alone must
// still reach the deck. The newest snapshot must equal the live design's
// deck, and after a crash the recovered slack table must have the same
// endpoints and slacks to 1e-9.
func TestDesignRecoveryAfterOutputAndStructuralEdits(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := walServer(t, dir)
	srv1.snapEvery = 2

	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "required": 700})
	code, created := serveJSON(t, srv1, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	edits := []string{
		`{"op": "grow", "net": "bus", "parent": "far", "name": "tap1", "kind": "line", "r": 50, "c": 0.01}`,
		`{"op": "addOutput", "net": "bus", "node": "tap1"}`, // rotation after an output-only edit
		`{"op": "grow", "net": "bus", "parent": "in", "name": "tap2", "r": 30}`,
		`{"op": "addOutput", "net": "bus", "node": "tap2"}`, // rotation
		`{"op": "removeOutput", "net": "bus", "node": "tap1"}`,
		`{"op": "setR", "net": "drv", "node": "o", "r": 350}`, // rotation
		`{"op": "prune", "net": "bus", "node": "tap1"}`,
		`{"op": "removeOutput", "net": "bus", "node": "tap2"}`, // rotation after a prune and an output edit
		`{"op": "addOutput", "net": "bus", "node": "tap2"}`,
	}
	for i, e := range edits {
		code, resp := serveJSON(t, srv1, http.MethodPost, "/design/"+id+"/edit", `{"edits": [`+e+`]}`)
		if code != http.StatusOK || resp["applied"].(float64) != 1 {
			t.Fatalf("edit %d = %d: %v", i, code, resp)
		}
		if i%2 == 0 {
			continue
		}
		// A rotation just landed: the snapshot is the live design's deck.
		ent, _ := srv1.designs.get(id)
		ent.val.mu.Lock()
		d, err := ent.val.sess.Design()
		seq := ent.val.wlog.Seq()
		ent.val.mu.Unlock()
		srv1.designs.release(ent)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(dir, id, fmt.Sprintf("snap.%d.ckt", seq)))
		if err != nil {
			t.Fatal(err)
		}
		if want := netlist.WriteDesign(d); string(snap) != want {
			t.Fatalf("after edit %d the snapshot differs from the live design:\n%s\nwant:\n%s", i, snap, want)
		}
	}
	code, slackBody := serveJSON(t, srv1, http.MethodGet, "/design/"+id+"/slack", "")
	if code != http.StatusOK {
		t.Fatalf("GET slack = %d: %v", code, slackBody)
	}
	wantWNS, wantTNS, wantSlacks := slackNumbers(t, slackBody)
	if _, ok := wantSlacks["bus.tap2"]; !ok {
		t.Fatalf("bus.tap2 is not an endpoint: %v", wantSlacks)
	}

	// Crash: srv1 is abandoned with one edit in the live log's tail.
	srv2, n := walServer(t, dir)
	if n != 1 {
		t.Fatalf("recovered %d designs, want 1", n)
	}
	code, slackBody2 := serveJSON(t, srv2, http.MethodGet, "/design/"+id+"/slack", "")
	if code != http.StatusOK {
		t.Fatalf("GET recovered slack = %d", code)
	}
	gotWNS, gotTNS, gotSlacks := slackNumbers(t, slackBody2)
	const tol = 1e-9
	if math.Abs(gotWNS-wantWNS) > tol || math.Abs(gotTNS-wantTNS) > tol {
		t.Errorf("recovered WNS/TNS (%g, %g), want (%g, %g)", gotWNS, gotTNS, wantWNS, wantTNS)
	}
	if len(gotSlacks) != len(wantSlacks) {
		t.Fatalf("recovered endpoints %v, want %v", gotSlacks, wantSlacks)
	}
	for key, want := range wantSlacks {
		if got, ok := gotSlacks[key]; !ok || math.Abs(got-want) > tol {
			t.Errorf("endpoint %s slack = %g, want %g", key, got, want)
		}
	}
}

// TestDesignWALHealsPoisonedLog: a failed append leaves the log refusing
// appends, while the batch is already applied in memory. The edit handler
// heals it with one rotation from the live session, so the edit answers
// 200, the log moves to a fresh sequence, later edits keep logging, and a
// restart reproduces every edit (to 1e-9: the healing rotation's snapshot
// is re-timed by a fresh sweep).
func TestDesignWALHealsPoisonedLog(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := walServer(t, dir)
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "required": 700})
	code, created := serveJSON(t, srv1, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	edit := func(srv *server, i int) {
		t.Helper()
		code, resp := serveJSON(t, srv, http.MethodPost, "/design/"+id+"/edit", `{"edits": [`+crashEdit(i)+`]}`)
		if code != http.StatusOK || resp["applied"].(float64) != 1 {
			t.Fatalf("edit %d = %d: %v", i, code, resp)
		}
	}
	edit(srv1, 0)

	ent, _ := srv1.designs.get(id)
	ds := ent.val
	ds.mu.Lock()
	seq := ds.wlog.Seq()
	ds.wlog.Close() // the next write fails and poisons the log
	ds.mu.Unlock()
	edit(srv1, 1)
	ds.mu.Lock()
	healed := ds.wlog.Seq()
	ds.mu.Unlock()
	srv1.designs.release(ent)
	if healed != seq+1 {
		t.Errorf("log seq after the failed append = %d, want %d (one healing rotation)", healed, seq+1)
	}
	edit(srv1, 2)
	if got := srv1.obs.Counter("rcserve_wal_heals_total").Value(); got != 1 {
		t.Errorf("rcserve_wal_heals_total = %d, want 1", got)
	}
	code, want := serve(srv1, http.MethodGet, "/design/"+id+"/slack", "")
	if code != http.StatusOK {
		t.Fatalf("GET slack = %d: %s", code, want)
	}

	srv2, n := walServer(t, dir) // crash: srv1 is abandoned as is
	if n != 1 {
		t.Fatalf("recovered %d designs, want 1", n)
	}
	if _, info := serveJSON(t, srv2, http.MethodGet, "/design/"+id, ""); info["edits"].(float64) != 3 {
		t.Errorf("recovered edit count = %v, want 3", info["edits"])
	}
	code, got := serve(srv2, http.MethodGet, "/design/"+id+"/slack", "")
	if code != http.StatusOK {
		t.Fatalf("GET recovered slack = %d: %s", code, got)
	}
	sameReport(t, got, want)
}

// reportJSON cuts the report out of a /design/{id}/slack body; the gen
// before it counts Apply batches, which a replay folds into one.
func reportJSON(t *testing.T, body []byte) string {
	t.Helper()
	i := bytes.Index(body, []byte(`"report": `))
	if i < 0 {
		t.Fatalf("no report in %s", body)
	}
	return string(body[i:])
}

// sameReport asserts two /design/{id}/slack bodies carry the same report:
// the same fields, endpoints in the same order and the same path hops, and
// every number within 1e-9.
func sameReport(t *testing.T, got, want []byte) {
	t.Helper()
	var g, w struct {
		Report any `json:"report"`
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	var walk func(path string, g, w any)
	walk = func(path string, g, w any) {
		switch w := w.(type) {
		case map[string]any:
			gm, ok := g.(map[string]any)
			if !ok || len(gm) != len(w) {
				t.Errorf("%s = %v, want %v", path, g, w)
				return
			}
			for k, wv := range w {
				walk(path+"."+k, gm[k], wv)
			}
		case []any:
			ga, ok := g.([]any)
			if !ok || len(ga) != len(w) {
				t.Errorf("%s = %v, want %v", path, g, w)
				return
			}
			for i := range w {
				walk(fmt.Sprintf("%s[%d]", path, i), ga[i], w[i])
			}
		case float64:
			if gf, ok := g.(float64); !ok || math.Abs(gf-w) > 1e-9 {
				t.Errorf("%s = %v, want %v", path, g, w)
			}
		default:
			if g != w {
				t.Errorf("%s = %v, want %v", path, g, w)
			}
		}
	}
	walk("report", g.Report, w.Report)
}

// postedDeck is a design as a client might type it, which WriteDesign
// would rewrite: CRLF line ends, comments, upper- and lower-case cards,
// SPICE suffixes (1.8k, 40m) and stages out of WriteDesign's order.
var postedDeck = strings.ReplaceAll(`* posted by hand
.DESIGN posted
.net drv
.input in
r1 in o 380
c1 o 0 40m
.output o
.endnet
* the bus: a line and a side branch
.NET bus
.Input in
u1 in far 1.8k 110m
C1 far 0 13m
R2 in mid 0.5k
C2 mid 0 20m
.OUTPUT far
.output mid
.ENDNET
.net aux
.input in
R1 in o 220
C1 o 0 60m
.output o
.endnet
.net sink
.input in
R1 in o 150
C1 o 0 30m
.output o
.endnet
.stage bus far sink 25
.stage aux o sink 40
.stage drv o bus 25
.stage drv o aux 10
.require sink o 700
.Require bus mid 300
.end
`, "\n", "\r\n")

// postedEdits are the edits TestPostedDeckRecovery logs, in batches.
var postedEdits = []string{
	`{"op": "setR", "net": "drv", "node": "o", "r": 350}`,
	`{"op": "grow", "net": "bus", "parent": "mid", "name": "tap", "r": 40, "c": 0.01}`,
	`{"op": "addC", "net": "aux", "node": "o", "c": 0.02}`,
	`{"op": "setLine", "net": "bus", "node": "far", "r": 1500, "c": 0.09}`,
	`{"op": "scaleDriver", "net": "sink", "factor": 0.8}`,
	`{"op": "addOutput", "net": "bus", "node": "tap"}`,
}

// TestPostedDeckRecovery: snapshot 1 is the deck as posted, byte for byte,
// and recovery rebuilds from it the session the live one was built from.
// Crash before any rotation (snapshot 1 + log): the same parse and the same
// edits give a slack report byte-identical to the live one. Crash after a
// rotation (the canonical snapshot 2 + log): the nets edited before it come
// back from a fresh sweep of the snapshot rather than from the live
// session's incremental aggregates, which may differ in the last bits, so
// the report must match in every field, endpoint and hop, and in every
// number to 1e-9.
//
// The deck is posted three ways: as json.Marshal writes it and with é and
// \/ escapes, which both take the one-pass decode, and with a surrogate
// pair, which encoding/json decodes. Each way, snapshot 1 is the decoded
// deck.
func TestPostedDeckRecovery(t *testing.T) {
	plain, _ := json.Marshal(map[string]any{"design": postedDeck, "threshold": 0.7, "required": 500})
	quote := func(deck string) string {
		q, _ := json.Marshal(deck)
		return string(q)
	}
	escaped := strings.Replace(postedDeck, "* posted by hand", "* posted by hand: café/bistro", 1)
	paired := strings.Replace(postedDeck, "* posted by hand", "* posted by hand \U0001F50C", 1)
	for _, tc := range []struct {
		name, deck, body string
		fast             bool
	}{
		{"plain", postedDeck, string(plain), true},
		{"escapes", escaped, `{"threshold": 0.7, "design": ` +
			strings.NewReplacer("é", `\u00e9`, "/", `\/`).Replace(quote(escaped)) + `, "required": 500}`, true},
		{"surrogate pair", paired, `{"design": ` +
			strings.Replace(quote(paired), "\U0001F50C", `\ud83d\udd0c`, 1) + `, "threshold": 0.7, "required": 500}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, fast := decodeDesignFast([]byte(tc.body)); fast != tc.fast {
				t.Fatalf("one-pass decode taken = %v, want %v", fast, tc.fast)
			}
			postedDeckRecovery(t, tc.body, tc.deck)
		})
	}
}

// postedDeckRecovery creates a design from body, which carries deck, and
// runs TestPostedDeckRecovery's two crashes on it.
func postedDeckRecovery(t *testing.T, body, deck string) {
	dir := t.TempDir()
	srv1, _ := walServer(t, dir)
	srv1.snapEvery = 0
	code, created := serveJSON(t, srv1, http.MethodPost, "/design", body)
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	snap, err := os.ReadFile(filepath.Join(dir, id, "snap.1.ckt"))
	if err != nil || string(snap) != deck {
		t.Fatalf("snap.1.ckt is not the deck as posted (%v):\n%q", err, snap)
	}
	edit := func(srv *server, e string) {
		t.Helper()
		if code, resp := serveJSON(t, srv, http.MethodPost, "/design/"+id+"/edit", `{"edits": [`+e+`]}`); code != http.StatusOK {
			t.Fatalf("edit %s = %d: %v", e, code, resp)
		}
	}
	crash := func(live *server, wantSeq string, exact bool) *server {
		t.Helper()
		code, want := serve(live, http.MethodGet, "/design/"+id+"/slack", "")
		if code != http.StatusOK {
			t.Fatalf("GET slack = %d: %s", code, want)
		}
		if _, err := os.Stat(filepath.Join(dir, id, "snap."+wantSeq+".ckt")); err != nil {
			t.Fatalf("live snapshot: %v", err)
		}
		srv, n := walServer(t, dir) // live is abandoned as is
		if n != 1 {
			t.Fatalf("recovered %d designs, want 1", n)
		}
		srv.snapEvery = 0
		code, got := serve(srv, http.MethodGet, "/design/"+id+"/slack", "")
		if code != http.StatusOK {
			t.Fatalf("GET recovered slack = %d: %s", code, got)
		}
		if !exact {
			sameReport(t, got, want)
		} else if g, w := reportJSON(t, got), reportJSON(t, want); g != w {
			t.Errorf("recovered from snapshot %s, the report differs from the live one:\n%s\nwant:\n%s", wantSeq, g, w)
		}
		return srv
	}

	for _, e := range postedEdits[:3] {
		edit(srv1, e)
	}
	srv2 := crash(srv1, "1", true) // before any rotation: snapshot 1 + a 3-edit log

	if n, err := srv2.snapshotAll(); err != nil || n != 1 {
		t.Fatalf("snapshotAll = %d, %v; want 1, nil", n, err)
	}
	for _, e := range postedEdits[3:] {
		edit(srv2, e)
	}
	crash(srv2, "2", false) // after a rotation: the canonical snapshot 2 + a 3-edit log
}

// tieDeck has two identical drivers into one sink, their .stage cards out
// of canonical order, so the sink's worst fanin is an exact tie.
const tieDeck = `.design tie
.net b
.input in
R1 in o 200
C1 o 0 0.05
.output o
.endnet
.net a
.input in
R1 in o 200
C1 o 0 0.05
.output o
.endnet
.net sink
.input in
R1 in o 150
C1 o 0 0.03
.output o
.endnet
.stage b o sink 10
.stage a o sink 10
.require sink o 20
.end
`

// TestRecoveredTieNamesLivePath: a design whose critical path ends in an
// exact fanin tie, edited once, rotated to the canonical deck and
// recovered, must name the same critical path as the live session. Both
// break the tie by fanin order, and the graph builds each net's fanin in
// the canonical stage order whatever the order of the posted cards.
func TestRecoveredTieNamesLivePath(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := walServer(t, dir)
	srv1.snapEvery = 0
	body, _ := json.Marshal(map[string]any{"design": tieDeck, "threshold": 0.7})
	code, created := serveJSON(t, srv1, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	if code, resp := serveJSON(t, srv1, http.MethodPost, "/design/"+id+"/edit",
		`{"edits": [{"op": "scaleDriver", "net": "sink", "factor": 0.9}]}`); code != http.StatusOK {
		t.Fatalf("edit = %d: %v", code, resp)
	}
	if n, err := srv1.snapshotAll(); err != nil || n != 1 {
		t.Fatalf("snapshotAll = %d, %v; want 1, nil", n, err)
	}
	hops := func(srv *server) string {
		t.Helper()
		code, resp := serveJSON(t, srv, http.MethodGet, "/design/"+id+"/slack", "")
		if code != http.StatusOK {
			t.Fatalf("GET slack = %d: %v", code, resp)
		}
		paths := resp["report"].(map[string]any)["paths"].([]any)
		if len(paths) == 0 {
			t.Fatalf("no critical path: %v", resp)
		}
		h, _ := json.Marshal(paths[0].(map[string]any)["hops"])
		return string(h)
	}
	live := hops(srv1)
	srv2, n := walServer(t, dir)
	if n != 1 {
		t.Fatalf("recovered %d designs, want 1", n)
	}
	if got := hops(srv2); got != live {
		t.Fatalf("recovered critical path %s, live %s", got, live)
	}
}
