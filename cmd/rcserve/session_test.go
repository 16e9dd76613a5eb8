package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rcdelay "repro"
)

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decode %s %s response: %v", method, url, err)
	}
	return resp.StatusCode, decoded
}

func openSession(t *testing.T, ts *httptest.Server, deck string) string {
	t.Helper()
	status, body := post(t, ts.URL+"/session", `{"netlist": `+jsonString(deck)+`}`)
	if status != http.StatusCreated {
		t.Fatalf("create session: status %d: %v", status, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("create session: no id in %v", body)
	}
	return id
}

// TestSessionEditMatchesReanalysis is the session API's core correctness
// check: edit R1 in place, then compare the session's incremental times with
// a from-scratch /analyze of the equivalently modified deck.
func TestSessionEditMatchesReanalysis(t *testing.T) {
	_, ts := testServer(t)
	id := openSession(t, ts, fig7Deck)

	status, body := post(t, ts.URL+"/session/"+id+"/edit",
		`{"edits": [{"op": "setR", "node": "n1", "r": 20},
		            {"op": "setC", "node": "b", "c": 3.5}]}`)
	if status != http.StatusOK {
		t.Fatalf("edit: status %d: %v", status, body)
	}
	if got := body["applied"].(float64); got != 2 {
		t.Fatalf("applied = %v, want 2", got)
	}
	outs := body["outputs"].([]any)
	if len(outs) != 1 {
		t.Fatalf("outputs = %v", outs)
	}
	sessTimes := outs[0].(map[string]any)["times"].(map[string]any)

	edited := strings.Replace(fig7Deck, "R1 in n1 15", "R1 in n1 20", 1)
	edited = strings.Replace(edited, "C2 b 0 7", "C2 b 0 3.5", 1)
	status, ref := post(t, ts.URL+"/analyze", `{"netlist": `+jsonString(edited)+`}`)
	if status != http.StatusOK {
		t.Fatalf("reference analyze: status %d: %v", status, ref)
	}
	refTimes := ref["outputs"].([]any)[0].(map[string]any)["times"].(map[string]any)
	for _, k := range []string{"tp", "td", "tr", "ree"} {
		a, b := sessTimes[k].(float64), refTimes[k].(float64)
		if math.Abs(a-b) > 1e-9*math.Max(math.Abs(b), 1) {
			t.Errorf("%s: session %g != reanalysis %g", k, a, b)
		}
	}

	// Bounds tables agree with the batch endpoint's for the same deck.
	status, bounds := doJSON(t, http.MethodGet, ts.URL+"/session/"+id+"/bounds?thresholds=0.5,0.9&times=100", "")
	if status != http.StatusOK {
		t.Fatalf("bounds: status %d: %v", status, bounds)
	}
	bo := bounds["outputs"].([]any)[0].(map[string]any)
	delay := bo["delay"].([]any)
	if len(delay) != 2 {
		t.Fatalf("delay rows = %v", delay)
	}
	status, refB := post(t, ts.URL+"/analyze",
		`{"netlist": `+jsonString(edited)+`, "thresholds": [0.5, 0.9], "times": [100]}`)
	if status != http.StatusOK {
		t.Fatalf("reference bounds: %d", status)
	}
	refDelay := refB["outputs"].([]any)[0].(map[string]any)["delay"].([]any)
	for i := range delay {
		a := delay[i].(map[string]any)
		b := refDelay[i].(map[string]any)
		for _, k := range []string{"v", "tmin", "tmax"} {
			if math.Abs(a[k].(float64)-b[k].(float64)) > 1e-9*math.Max(math.Abs(b[k].(float64)), 1) {
				t.Errorf("delay row %d %s: session %v != reanalysis %v", i, k, a[k], b[k])
			}
		}
	}
}

// TestSessionStructuralEdits drives grow, addOutput, prune and graft through
// the HTTP surface.
func TestSessionStructuralEdits(t *testing.T) {
	_, ts := testServer(t)
	id := openSession(t, ts, fig7Deck)

	status, body := post(t, ts.URL+"/session/"+id+"/edit",
		`{"edits": [
			{"op": "grow", "parent": "b", "name": "tap", "kind": "line", "r": 4, "c": 2},
			{"op": "addC", "node": "tap", "c": 1.5},
			{"op": "addOutput", "node": "tap"},
			{"op": "scaleDriver", "factor": 1.25}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("structural edit: status %d: %v", status, body)
	}
	if got := body["applied"].(float64); got != 4 {
		t.Fatalf("applied = %v, want 4", got)
	}
	if outs := body["outputs"].([]any); len(outs) != 2 {
		t.Fatalf("want 2 outputs after addOutput, got %v", outs)
	}

	// Graft a small deck under n1, tap its far end, then prune the original
	// tap branch.
	graft := ".input gin\nR9 gin gfar 5\nC9 gfar 0 1\n.output gfar\n"
	status, body = post(t, ts.URL+"/session/"+id+"/edit",
		`{"edits": [
			{"op": "graft", "parent": "n1", "netlist": `+jsonString(graft)+`, "kind": "resistor", "r": 2},
			{"op": "addOutput", "node": "gfar"},
			{"op": "prune", "node": "tap"}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("graft edit: status %d: %v", status, body)
	}
	if got := body["applied"].(float64); got != 3 {
		t.Fatalf("applied = %v, want 3", got)
	}

	// Session info reflects the new shape.
	status, info := doJSON(t, http.MethodGet, ts.URL+"/session/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("info: %d: %v", status, info)
	}
	names := fmt.Sprint(info["outputs"])
	if !strings.Contains(names, "gfar") || strings.Contains(names, "tap") {
		t.Fatalf("outputs after graft+prune = %v", info["outputs"])
	}
	if info["edits"].(float64) != 7 {
		t.Errorf("edits counter = %v, want 7", info["edits"])
	}

	// The session's answer equals a full reanalysis of the materialized deck.
	status, bounds := doJSON(t, http.MethodGet, ts.URL+"/session/"+id+"/bounds?output=gfar", "")
	if status != http.StatusOK {
		t.Fatalf("bounds: %d: %v", status, bounds)
	}
	sessTD := bounds["outputs"].([]any)[0].(map[string]any)["times"].(map[string]any)["td"].(float64)
	want := buildStructuralReference(t)
	if math.Abs(sessTD-want) > 1e-9*want {
		t.Errorf("grafted TD = %g, want %g", sessTD, want)
	}
}

// buildStructuralReference reproduces TestSessionStructuralEdits' final
// network with the library directly and returns TD at gfar.
func buildStructuralReference(t *testing.T) float64 {
	t.Helper()
	tree, err := rcdelay.ParseNetlist(fig7Deck)
	if err != nil {
		t.Fatal(err)
	}
	et := rcdelay.NewEditTree(tree)
	n1, _ := et.Lookup("n1")
	b, _ := et.Lookup("b")
	tap, err := et.Grow(b, "tap", rcdelay.EdgeLine, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.AddCapacitance(tap, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := et.AddOutput(tap); err != nil {
		t.Fatal(err)
	}
	if err := et.ScaleDriver(1.25); err != nil {
		t.Fatal(err)
	}
	sub, err := rcdelay.ParseNetlist(".input gin\nR9 gin gfar 5\nC9 gfar 0 1\n.output gfar\n")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := et.Graft(n1, "", rcdelay.EdgeResistor, 2, 0, sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.AddOutput(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if err := et.Prune(tap); err != nil {
		t.Fatal(err)
	}
	gfar, _ := et.Lookup("gfar")
	tm, err := et.Times(gfar)
	if err != nil {
		t.Fatal(err)
	}
	return tm.TD
}

// TestSessionEditErrors: bad edits stop the batch, report position, and
// leave the session usable; malformed requests are rejected.
func TestSessionEditErrors(t *testing.T) {
	_, ts := testServer(t)
	id := openSession(t, ts, fig7Deck)

	status, body := post(t, ts.URL+"/session/"+id+"/edit",
		`{"edits": [{"op": "setR", "node": "n1", "r": 30},
		            {"op": "setR", "node": "ghost", "r": 1},
		            {"op": "setR", "node": "n1", "r": 40}]}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %v", status, body)
	}
	if got := body["applied"].(float64); got != 1 {
		t.Errorf("applied = %v, want 1 (stop at first failure)", got)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "ghost") {
		t.Errorf("error %q does not name the bad node", msg)
	}

	for _, bad := range []string{
		`{"edits": []}`,
		`{"edits": [{"op": "warp", "node": "n1"}]}`,
		`{"edits": [{"op": "setR", "node": "n1"}]}`, // missing r
		`not json`,
	} {
		status, _ := post(t, ts.URL+"/session/"+id+"/edit", bad)
		if status < 400 {
			t.Errorf("edit %q: status %d, want an error", bad, status)
		}
	}

	// The session survived all of that.
	status, _ = doJSON(t, http.MethodGet, ts.URL+"/session/"+id+"/bounds", "")
	if status != http.StatusOK {
		t.Errorf("session unusable after bad edits: %d", status)
	}

	// Unknown sessions 404 everywhere.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/session/nope"},
		{http.MethodGet, "/session/nope/bounds"},
		{http.MethodPost, "/session/nope/edit"},
		{http.MethodDelete, "/session/nope"},
	} {
		body := ""
		if probe.method == http.MethodPost {
			body = `{"edits": [{"op": "scaleDriver", "factor": 2}]}`
		}
		if status, _ := doJSON(t, probe.method, ts.URL+probe.path, body); status != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, status)
		}
	}
}

// TestSessionEditGuards: /session refuses the edits every other boundary
// refuses. Draining a net's only capacitance leaves its characteristic
// times undefined, and undesignating or pruning away every output leaves a
// tree whose timing no analysis would report; each is a 422 that applies
// nothing and leaves the generation and the outputs as they were.
func TestSessionEditGuards(t *testing.T) {
	_, ts := testServer(t)
	const oneCap = ".input in\nR1 in o 15\nC1 o 0 2\n.output o\n"
	const twoOuts = ".input in\nR1 in n1 10\nC1 n1 0 1\nR2 n1 a 5\nC2 a 0 2\nR3 n1 b 5\nC3 b 0 3\n.output a\n.output b\n"
	for _, tc := range []struct {
		name, deck, edit, want string
	}{
		{"drain the only capacitor", oneCap, `{"op": "setC", "node": "o", "c": 0}`, "no capacitance"},
		{"remove the last output", oneCap, `{"op": "removeOutput", "node": "o"}`, "without designated outputs"},
		{"prune every output", twoOuts, `{"op": "prune", "node": "n1"}`, "without designated outputs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := openSession(t, ts, tc.deck)
			_, before := doJSON(t, http.MethodGet, ts.URL+"/session/"+id, "")
			status, body := post(t, ts.URL+"/session/"+id+"/edit", `{"edits": [`+tc.edit+`]}`)
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422: %v", status, body)
			}
			if msg, _ := body["error"].(string); !strings.Contains(msg, tc.want) {
				t.Errorf("error %q, want it to mention %q", msg, tc.want)
			}
			if got := body["applied"].(float64); got != 0 {
				t.Errorf("applied = %v, want 0", got)
			}
			_, after := doJSON(t, http.MethodGet, ts.URL+"/session/"+id, "")
			if fmt.Sprint(after) != fmt.Sprint(before) {
				t.Errorf("refused edit changed the session: %v -> %v", before, after)
			}
			if body["gen"] != before["gen"] {
				t.Errorf("edit response gen %v, session was at %v", body["gen"], before["gen"])
			}
		})
	}
}

// TestSessionDelete closes a session explicitly.
func TestSessionDelete(t *testing.T) {
	_, ts := testServer(t)
	id := openSession(t, ts, fig7Deck)
	if status, _ := doJSON(t, http.MethodDelete, ts.URL+"/session/"+id, ""); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/session/"+id, ""); status != http.StatusNotFound {
		t.Errorf("deleted session still answers: %d", status)
	}
}

// TestSessionTTLAndEviction exercises the store directly with a fake clock.
func TestSessionTTLAndEviction(t *testing.T) {
	tree, err := rcdelay.ParseNetlist(fig7Deck)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	st := newSessionStore(storeConfig{ttl: time.Minute, max: 2})
	st.now = func() time.Time { return now }

	a := st.create(&session{et: rcdelay.NewEditTree(tree)})
	st.release(a)
	now = now.Add(30 * time.Second)
	b := st.create(&session{et: rcdelay.NewEditTree(tree)})
	st.release(b)
	now = now.Add(time.Second)
	if ent, ok := st.get(a.id); !ok { // touches a: b is now the LRU entry
		t.Fatal("session a should be alive")
	} else {
		st.release(ent)
	}
	// a was just touched; c's creation must evict the LRU entry, b.
	c := st.create(&session{et: rcdelay.NewEditTree(tree)})
	st.release(c)
	if _, ok := st.get(b.id); ok {
		t.Error("LRU session b should have been evicted at capacity")
	}
	if ent, ok := st.get(c.id); !ok {
		t.Error("session c should be alive")
	} else {
		st.release(ent)
	}
	// Idle past the TTL expires on access...
	now = now.Add(2 * time.Minute)
	if _, ok := st.get(a.id); ok {
		t.Error("session a should have expired")
	}
	// ...and on sweep.
	st.sweep()
	stats := st.stats()
	if stats["active"].(int) != 0 {
		t.Errorf("active = %v after sweep, want 0", stats["active"])
	}
	if stats["evicted"].(int64) != 1 || stats["expired"].(int64) != 2 {
		t.Errorf("counters = %v", stats)
	}
}

// TestBodyCap: requests beyond -max-body are rejected with 413 on both the
// batch and session surfaces.
func TestBodyCap(t *testing.T) {
	srv := newServer(rcdelay.NewBatchEngine(rcdelay.BatchOptions{}))
	srv.logger = slog.New(slog.DiscardHandler)
	srv.maxBody = 256
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	big := `{"netlist": "` + strings.Repeat("* pad\\n", 200) + `"}`
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/analyze big body: status %d, want 413", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/session", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/session big body: status %d, want 413", resp.StatusCode)
	}
	// POST /design reads the whole body before decoding it, so the whole
	// body counts: a body whose object closes before the cap is refused
	// too.
	for name, body := range map[string]string{
		"big deck":            `{"design": "` + strings.Repeat("* pad\\n", 200) + `"}`,
		"object before a pad": `{"design": "x"}` + strings.Repeat(" ", 300),
	} {
		resp, err = http.Post(ts.URL+"/design", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("/design %s: status %d, want 413", name, resp.StatusCode)
		}
	}
}

// TestHealthzSessionCounters: /healthz carries the session gauge and the
// bounds-query counter, and /debug/vars is not served.
func TestHealthzSessionCounters(t *testing.T) {
	_, ts := testServer(t)
	id := openSession(t, ts, fig7Deck)
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/session/"+id+"/bounds", ""); status != http.StatusOK {
		t.Fatal("bounds probe failed")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var rc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rc); err != nil {
		t.Fatal(err)
	}
	sessions, ok := rc["sessions"].(map[string]any)
	if !ok || sessions["active"].(float64) < 1 {
		t.Errorf("sessions = %v, want at least one active", rc["sessions"])
	}
	if rc["boundsQueries"].(float64) < 1 {
		t.Errorf("boundsQueries = %v, want >= 1", rc["boundsQueries"])
	}
	gone, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars status %d, want 404", gone.StatusCode)
	}
}

// TestSessionOutputEditsBumpGen: an output-only batch changes the session's
// output set, so its answer carries a new generation; a batch whose only
// edit is refused does not.
func TestSessionOutputEditsBumpGen(t *testing.T) {
	_, ts := testServer(t)
	id := openSession(t, ts, fig7Deck)
	gen := func(body map[string]any) float64 {
		t.Helper()
		g, ok := body["gen"].(float64)
		if !ok {
			t.Fatalf("no gen in %v", body)
		}
		return g
	}
	_, info := doJSON(t, http.MethodGet, ts.URL+"/session/"+id, "")
	last := gen(info)
	for _, edit := range []string{
		`{"op": "addOutput", "node": "b"}`,
		`{"op": "removeOutput", "node": "n2"}`,
		`{"op": "addOutput", "node": "n2"}`,
	} {
		status, body := post(t, ts.URL+"/session/"+id+"/edit", `{"edits": [`+edit+`]}`)
		if status != http.StatusOK || body["applied"].(float64) != 1 {
			t.Fatalf("%s: status %d: %v", edit, status, body)
		}
		if g := gen(body); g <= last {
			t.Fatalf("%s: gen %v after gen %v, want an increase", edit, g, last)
		} else {
			last = g
		}
	}
	status, body := post(t, ts.URL+"/session/"+id+"/edit", `{"edits": [{"op": "addOutput", "node": "b"}]}`)
	if status == http.StatusOK && body["applied"].(float64) != 0 {
		t.Fatalf("double addOutput applied: %v", body)
	}
	_, info = doJSON(t, http.MethodGet, ts.URL+"/session/"+id, "")
	if g := gen(info); g != last {
		t.Errorf("refused addOutput moved gen %v -> %v", last, g)
	}
}
