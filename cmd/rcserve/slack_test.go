package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/rctree"
	"repro/internal/timing"
)

// serve runs one request against srv and returns the status and body.
func serve(srv *server, method, path, body string) (int, []byte) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// failingRandDesign is a 32-net random chip whose required time sits at 85%
// of its latest endpoint arrival, so closure has work to do. It returns the
// deck, the required time and each net's non-input node names.
func failingRandDesign(t *testing.T) (string, float64, map[string][]string) {
	t.Helper()
	d := randnet.DesignSeed(5, randnet.DesignConfig{
		Levels: 4, Width: 8, Net: randnet.DefaultConfig(12), FaninMax: 3, DelayMax: 10,
	})
	rep, err := timing.Analyze(context.Background(), d, timing.Options{Threshold: 0.7, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string][]string{}
	for _, n := range d.Nets {
		for id := 1; id < n.Tree.NumNodes(); id++ {
			nodes[n.Name] = append(nodes[n.Name], n.Tree.Name(rctree.NodeID(id)))
		}
	}
	return netlist.WriteDesign(d), 0.85 * rep.Endpoints[0].Arrival.Max, nodes
}

// TestDesignSlackConcurrentWithEditsAndClose drives slack reads, edit
// batches (node values and output sets) and closure runs at one design at
// once. Every slack body must parse and no reader may see the generation go
// back. Once traffic stops, the incrementally rendered body must equal a
// full report assembly of the same state, byte for byte.
func TestDesignSlackConcurrentWithEditsAndClose(t *testing.T) {
	srv := designServer()
	deck, required, nodes := failingRandDesign(t)
	body, _ := json.Marshal(map[string]any{"design": deck, "threshold": 0.7, "required": required})
	code, created := postDesign(t, srv, string(body))
	if code != http.StatusCreated {
		t.Fatalf("POST /design = %d: %v", code, created)
	}
	id := created["id"].(string)
	nets := make([]string, 0, len(nodes))
	for net := range nodes {
		nets = append(nets, net)
	}
	slices.Sort(nets)

	const editors, readers, iters = 2, 2, 30
	var wg sync.WaitGroup
	errs := make(chan error, editors+readers+1)
	for e := range editors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(e)))
			for range iters {
				var batch []map[string]any
				for range 1 + rng.Intn(4) {
					net := nets[rng.Intn(len(nets))]
					node := nodes[net][rng.Intn(len(nodes[net]))]
					switch rng.Intn(4) {
					case 0:
						batch = append(batch, map[string]any{"op": "setR", "net": net, "node": node, "r": 1 + 99*rng.Float64()})
					case 1:
						batch = append(batch, map[string]any{"op": "scaleDriver", "net": net, "factor": 0.8 + 0.45*rng.Float64()})
					case 2:
						batch = append(batch, map[string]any{"op": "addOutput", "net": net, "node": node})
					default:
						batch = append(batch, map[string]any{"op": "removeOutput", "net": net, "node": node})
					}
				}
				b, _ := json.Marshal(map[string]any{"edits": batch})
				code, resp := serve(srv, http.MethodPost, "/design/"+id+"/edit", string(b))
				if (code != http.StatusOK && code != http.StatusUnprocessableEntity) || !json.Valid(resp) {
					errs <- fmt.Errorf("edit = %d: %s", code, resp)
					return
				}
			}
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for range iters {
				code, resp := serve(srv, http.MethodGet, "/design/"+id+"/slack", "")
				var got struct {
					Gen    uint64         `json:"gen"`
					Report map[string]any `json:"report"`
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("slack = %d: %s", code, resp)
					return
				}
				if err := json.Unmarshal(resp, &got); err != nil || got.Report["endpoints"] == nil {
					errs <- fmt.Errorf("slack body does not parse into a report: %v", err)
					return
				}
				if got.Gen < last {
					errs <- fmt.Errorf("slack gen went back from %d to %d", last, got.Gen)
					return
				}
				last = got.Gen
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 3 {
			code, resp := serve(srv, http.MethodPost, "/design/"+id+"/close", `{"maxMoves": 2}`)
			if (code != http.StatusOK && code != http.StatusUnprocessableEntity) || !json.Valid(resp) {
				errs <- fmt.Errorf("close = %d: %s", code, resp)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// One more edit drops the memoized report; a fork taken now carries the
	// state but no memo, so its Report is a full assembly.
	edit := fmt.Sprintf(`{"edits": [{"op": "scaleDriver", "net": %q, "factor": 1.1}]}`, nets[0])
	if code, resp := serve(srv, http.MethodPost, "/design/"+id+"/edit", edit); code != http.StatusOK {
		t.Fatalf("final edit = %d: %s", code, resp)
	}
	ent, ok := srv.designs.get(id)
	if !ok {
		t.Fatal("design vanished")
	}
	ent.val.mu.Lock()
	gen, fork := ent.val.sess.Gen(), ent.val.sess.Fork()
	ent.val.mu.Unlock()
	srv.designs.release(ent)
	full, err := fork.Report().AppendJSON(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("{\n  \"gen\": %s,\n  \"id\": %q,\n  \"report\": %s\n}\n", strconv.FormatUint(gen, 10), id, full)
	code, got := serve(srv, http.MethodGet, "/design/"+id+"/slack", "")
	if code != http.StatusOK || string(got) != want {
		t.Fatalf("slack after traffic (%d) differs from a full report of the same state at byte %d of %d",
			code, firstByteDiff(got, []byte(want)), len(want))
	}
}

func firstByteDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
