package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/randnet"
)

// benchBody is a POST /design body shaped as rcbench's closure workload
// sends it: json.Marshal of a map carrying a generated levels × width-net
// deck of nodes-node nets, the threshold and a fractional required time.
func benchBody(tb testing.TB, levels, width, nodes int) []byte {
	tb.Helper()
	cfg := randnet.DefaultDesignConfig(levels, width)
	cfg.Net = randnet.DefaultConfig(nodes)
	deck := netlist.WriteDesign(randnet.DesignSeed(1, cfg))
	body, err := json.Marshal(map[string]any{"design": deck, "threshold": 0.7, "required": 812345.678})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// jsonDecode is the reference decode: encoding/json with
// DisallowUnknownFields, as POST /design decoded every body before the
// one-pass path.
func jsonDecode(b []byte) (designRequest, error) {
	var req designRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func sameRequest(a, b designRequest) bool {
	return a.Design == b.Design && a.K == b.K &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		math.Float64bits(a.Required) == math.Float64bits(b.Required)
}

// TestDesignRequestDecodeFastPath: the bodies clients send take the
// one-pass decode and give what encoding/json gives: the closure
// benchmark's 240-net body, json.Marshal of a designRequest, and a deck
// with <&>, which json.Marshal escapes as \u003c, \u0026 and \u003e.
func TestDesignRequestDecodeFastPath(t *testing.T) {
	marshal := func(req designRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, body := range map[string][]byte{
		"closure bench body": benchBody(t, 6, 40, 60),
		"marshaled request":  marshal(designRequest{Design: chipDeck, Threshold: 0.7, Required: -1.5e-3, K: 3}),
		"deck with <&>":      marshal(designRequest{Design: "* <a & b>\n" + chipDeck, K: -2}),
	} {
		got, ok := decodeDesignFast(body)
		if !ok {
			t.Errorf("%s: fell back to encoding/json", name)
			continue
		}
		want, err := jsonDecode(body)
		if err != nil || !sameRequest(got, want) {
			t.Errorf("%s: one-pass decode differs from encoding/json (%v): design %d/%d bytes, threshold %v/%v, required %v/%v, k %d/%d",
				name, err, len(got.Design), len(want.Design), got.Threshold, want.Threshold, got.Required, want.Required, got.K, want.K)
		}
	}
}

// FuzzDesignRequestDecode: on any bytes, decodeDesignRequest agrees with
// encoding/json on the decoded request and on the error text. The seeds
// are a bench-shaped body, one body for each shape the one-pass decode
// hands to encoding/json, and edge cases it decodes itself: an escaped key,
// trailing bytes, every escape kind and the empty object.
func FuzzDesignRequestDecode(f *testing.F) {
	f.Add(benchBody(f, 2, 3, 6))
	for _, s := range []string{
		`{"design": null, "threshold": 0.7}`,
		`{"design": ".end", "slack": 1}`,
		`{"Design": ".end"}`,
		`{"\u0064esign": ".end"}`,
		`{"design": ".end", "design": ".x"}`,
		`{"design": "* \ud83d\udd0c\n.end"}`,
		`{"design": "* \udd0c\n.end"}`,
		"{\"design\": \"* \xff\\n.end\"}",
		"{\"design\": \"* \x01\\n.end\"}",
		`{"design": "\q"}`,
		`{"design": ".end", "k": 1.5}`,
		`{"design": ".end", "k": 9223372036854775808}`,
		`{"design": ".end", "threshold": 1e400}`,
		`{"design": ".end", "threshold": "0.7"}`,
		`{"design": ".end", "required": 01}`,
		`{"design": ".end",}`,
		`{"design": ".end"`,
		`{"design": ".end"} trailing`,
		` {"design": "\u003c\/\u00e9\"\\", "k": -0, "required": -0.0E+2}`,
		`{}`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gotErr := decodeDesignRequest(b)
		want, wantErr := jsonDecode(b)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !sameRequest(got, want) {
			t.Fatalf("decode %q:\ngot  %+v, %v\nwant %+v, %v", b, got, gotErr, want, wantErr)
		}
	})
}

// BenchmarkDesignCreate times POST /design in-process on the closure
// workload's body (240 nets × 60 nodes) with durability on, and reports
// each create phase's mean ms per op from its histogram: design_decode
// (body read and decode), netlist_parse, timing_session_mount and
// wal_create. Each op's DELETE runs outside the timer.
func BenchmarkDesignCreate(b *testing.B) {
	body := benchBody(b, 6, 40, 60)
	srv := designServer()
	if err := srv.openWAL(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/design", bytes.NewReader(body)))
		if w.Code != http.StatusCreated {
			b.Fatalf("POST /design = %d: %s", w.Code, w.Body)
		}
		b.StopTimer()
		var created designSummaryJSON
		if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
			b.Fatal(err)
		}
		w = httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/design/"+created.ID, nil))
		if w.Code != http.StatusOK {
			b.Fatalf("DELETE /design = %d: %s", w.Code, w.Body)
		}
		b.StartTimer()
	}
	for _, phase := range []string{"design_decode", "netlist_parse", "timing_session_mount", "wal_create"} {
		s := srv.obs.Histogram(phase+"_seconds", obs.LatencyBuckets).Snapshot()
		b.ReportMetric(s.Sum*1e3/float64(s.Count), phase+"_ms/op")
	}
}
