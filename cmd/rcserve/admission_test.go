package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// designState is what a refused request must leave alone: the session's
// generation and edit count, and the bytes of its WAL logs.
type designState struct {
	gen, edits float64
	wal        string
}

func readDesignState(t *testing.T, srv *server, dir, id string) designState {
	t.Helper()
	code, info := serveJSON(t, srv, http.MethodGet, "/design/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("GET /design/%s = %d: %v", id, code, info)
	}
	logs, err := filepath.Glob(filepath.Join(dir, id, "wal.*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no WAL log for %s: %v", id, err)
	}
	var wal strings.Builder
	for _, l := range logs {
		b, err := os.ReadFile(l)
		if err != nil {
			t.Fatal(err)
		}
		wal.Write(b)
	}
	return designState{gen: info["gen"].(float64), edits: info["edits"].(float64), wal: wal.String()}
}

// createDesign posts chipDeck and returns the new design's id.
func createDesign(t *testing.T, srv *server) string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"design": chipDeck, "threshold": 0.7, "required": 700})
	code, created := serveJSON(t, srv, http.MethodPost, "/design", string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	return created["id"].(string)
}

// expect429 posts an edit batch to design id and checks the refusal: 429,
// Retry-After: 1, and a JSON error carrying the request's correlation id.
// The refused request must change neither the session nor its WAL.
func expect429(t *testing.T, srv *server, dir, id, body string) {
	t.Helper()
	before := readDesignState(t, srv, dir, id)
	req := httptest.NewRequest(http.MethodPost, "/design/"+id+"/edit", strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("edit = %d, want 429: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("429 body is not JSON: %s", w.Body.String())
	}
	if msg, _ := resp["error"].(string); msg == "" {
		t.Errorf("429 body carries no error: %v", resp)
	}
	if rid := w.Header().Get("X-Request-Id"); rid == "" || resp["requestId"] != rid {
		t.Errorf("429 requestId = %v, X-Request-Id %q", resp["requestId"], rid)
	}
	if after := readDesignState(t, srv, dir, id); after != before {
		t.Errorf("refused edit changed the design: gen %v→%v, edits %v→%v, WAL %d→%d bytes",
			before.gen, after.gen, before.edits, after.edits, len(before.wal), len(after.wal))
	}
}

const oneEdit = `{"edits": [{"op": "setR", "net": "drv", "node": "o", "r": 200}]}`

// TestDesignAdmissionPerDesign: with -queue 1 and design A's one admission
// held, an edit on A answers 429 while design B is still admitted.
func TestDesignAdmissionPerDesign(t *testing.T) {
	dir := t.TempDir()
	srv, _ := walServer(t, dir)
	srv.designs = newDesignStore(storeConfig{queue: 1})
	a, b := createDesign(t, srv), createDesign(t, srv)

	ent, ok := srv.designs.get(a)
	if !ok {
		t.Fatal("design A not live")
	}
	defer srv.designs.release(ent)
	done, ok := srv.designs.admit(ent)
	if !ok {
		t.Fatal("first admission on A refused")
	}
	expect429(t, srv, dir, a, oneEdit)
	if code, resp := postEdits(t, srv, b, oneEdit); code != http.StatusOK {
		t.Fatalf("edit on B while A is full = %d: %v", code, resp)
	}
	done()
	if code, resp := postEdits(t, srv, a, oneEdit); code != http.StatusOK {
		t.Fatalf("edit on A after its admission ended = %d: %v", code, resp)
	}
}

// TestDesignEditRateLimit: an edit batch larger than the design's token
// bucket holds answers 429, and the bucket's burst is still granted.
func TestDesignEditRateLimit(t *testing.T) {
	dir := t.TempDir()
	srv, _ := walServer(t, dir)
	srv.designs = newDesignStore(storeConfig{editRate: 1e-9, editBurst: 2})
	id := createDesign(t, srv)

	expect429(t, srv, dir, id,
		`{"edits": [`+crashEdit(0)+`, `+crashEdit(1)+`, `+crashEdit(2)+`]}`)
	if code, resp := postEdits(t, srv, id, `{"edits": [`+crashEdit(0)+`, `+crashEdit(1)+`]}`); code != http.StatusOK {
		t.Fatalf("edit batch within the burst = %d: %v", code, resp)
	}
	expect429(t, srv, dir, id, oneEdit)
}
