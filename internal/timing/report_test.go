package timing

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/randnet"
)

// The wire structs below are the report's JSON schema as encoding/json sees
// it. They are the oracle the append-based writer is checked against: the
// writer must produce exactly the bytes encoding/json produces for them.
type jsonEndpoint struct {
	Net      string   `json:"net"`
	Output   string   `json:"output"`
	Arrival  Interval `json:"arrival"`
	Required *float64 `json:"required,omitempty"`
	Slack    *float64 `json:"slack,omitempty"`
	Verdict  string   `json:"verdict"`
}

type jsonHop struct {
	Net           string   `json:"net"`
	Output        string   `json:"output"`
	InputArrival  Interval `json:"inputArrival"`
	NetDelay      Interval `json:"netDelay"`
	OutputArrival Interval `json:"outputArrival"`
	StageDelay    float64  `json:"stageDelay,omitempty"`
}

type jsonPath struct {
	Endpoint string    `json:"endpoint"`
	Slack    *float64  `json:"slack,omitempty"`
	Hops     []jsonHop `json:"hops"`
}

type jsonReport struct {
	Design    string         `json:"design,omitempty"`
	Threshold float64        `json:"threshold"`
	Nets      int            `json:"nets"`
	Stages    int            `json:"stages"`
	Levels    int            `json:"levels"`
	WNS       *float64       `json:"wns,omitempty"`
	TNS       float64        `json:"tns"`
	Passes    int            `json:"passes"`
	Unknown   int            `json:"unknown"`
	Fails     int            `json:"fails"`
	Endpoints []jsonEndpoint `json:"endpoints"`
	Paths     []jsonPath     `json:"paths,omitempty"`
}

// wire converts the report to its JSON shape.
func wire(r *Report) jsonReport {
	p, u, f := r.CountByVerdict()
	out := jsonReport{
		Design: r.Design, Threshold: r.Threshold,
		Nets: r.Nets, Stages: r.Stages, Levels: r.Levels,
		WNS: finitePtr(r.WNS), TNS: r.TNS,
		Passes: p, Unknown: u, Fails: f,
	}
	for _, e := range r.Endpoints {
		out.Endpoints = append(out.Endpoints, jsonEndpoint{
			Net: e.Net, Output: e.Output, Arrival: e.Arrival,
			Required: finitePtr(e.Required), Slack: finitePtr(e.Slack),
			Verdict: e.Verdict.String(),
		})
	}
	for _, path := range r.Paths {
		jp := jsonPath{Endpoint: path.Endpoint, Slack: finitePtr(path.Slack)}
		for _, h := range path.Hops {
			jp.Hops = append(jp.Hops, jsonHop{
				Net: h.Net, Output: h.Output,
				InputArrival: h.InputArrival, NetDelay: h.NetDelay,
				OutputArrival: h.OutputArrival, StageDelay: h.StageDelay,
			})
		}
		out.Paths = append(out.Paths, jp)
	}
	return out
}

// oracleWriteJSON is WriteJSON as encoding/json renders it.
func oracleWriteJSON(r *Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(wire(r))
	return buf.Bytes(), err
}

// checkAgainstOracle asserts WriteJSON, MarshalJSON and an envelope built
// on AppendJSON match encoding/json byte for byte.
func checkAgainstOracle(t *testing.T, name string, r *Report) {
	t.Helper()
	want, err := oracleWriteJSON(r)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	var got bytes.Buffer
	if err := r.WriteJSON(&got); err != nil {
		t.Fatalf("%s: WriteJSON: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteJSON differs from encoding/json at byte %d:\n%s\nwant:\n%s",
			name, firstDiff(got.Bytes(), want), got.Bytes(), want)
	}

	wantCompact, err := json.Marshal(wire(r))
	if err != nil {
		t.Fatal(err)
	}
	gotCompact, err := r.MarshalJSON()
	if err != nil {
		t.Fatalf("%s: MarshalJSON: %v", name, err)
	}
	if !bytes.Equal(gotCompact, wantCompact) {
		t.Fatalf("%s: MarshalJSON differs at byte %d:\n%s\nwant:\n%s",
			name, firstDiff(gotCompact, wantCompact), gotCompact, wantCompact)
	}

	// Nested one level deep, as in rcserve's slack envelope.
	var env bytes.Buffer
	enc := json.NewEncoder(&env)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"report": r}); err != nil {
		t.Fatal(err)
	}
	nested, err := r.AppendJSON([]byte("{\n  \"report\": "), 1)
	if err != nil {
		t.Fatal(err)
	}
	nested = append(nested, "\n}\n"...)
	if !bytes.Equal(nested, env.Bytes()) {
		t.Fatalf("%s: nested AppendJSON differs at byte %d", name, firstDiff(nested, env.Bytes()))
	}

	// Nested deeper than the writer's precomputed indentation.
	var deepWant bytes.Buffer
	if err := json.Indent(&deepWant, wantCompact, strings.Repeat("  ", 12), "  "); err != nil {
		t.Fatal(err)
	}
	deep, err := r.AppendJSON(nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deep, deepWant.Bytes()) {
		t.Fatalf("%s: AppendJSON at depth 12 differs at byte %d", name, firstDiff(deep, deepWant.Bytes()))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func randnetReport(t testing.TB, seed int64, levels, width, nodes int, opts Options) *Report {
	t.Helper()
	cfg := randnet.DefaultDesignConfig(levels, width)
	cfg.Net = randnet.DefaultConfig(nodes)
	rep, err := Analyze(context.Background(), randnet.DesignSeed(seed, cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReportJSONMatchesOracleOnRandnet(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, opts := range []Options{
			{Threshold: 0.7, Required: 1e5, K: 5},
			{Threshold: 0.5, Required: 40, K: 3},   // failing endpoints, negative slack
			{Threshold: 0.9, K: 2},                 // unconstrained: WNS and slacks omitted
			{Threshold: 0.3, Required: 1e-7, K: 0}, // tiny required times, no paths
		} {
			checkAgainstOracle(t, "randnet", randnetReport(t, seed, 3+int(seed%3), 4, 12, opts))
		}
	}
}

func TestReportJSONMatchesOracleOnEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	names := []string{
		"", `<a href="x">&amp;</a>`, `back\slash "quoted"`, "tab\tnl\ncr\rbs\bff\f",
		"ctl\x00\x01\x1f\x7f", "héllo wörld", "日本語", "bad\xffutf8\xc3", "line\u2028para\u2029end",
		"\ufffd", "emoji 🙂",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-300,
		5e-324, 1e21, math.Nextafter(1e21, 0), -1e21, 1e300, math.MaxFloat64, 0.1, 123456.789, -42,
	}
	for i, name := range names {
		f := floats[i%len(floats)]
		g := floats[(i+5)%len(floats)]
		r := &Report{
			Design: name, Threshold: f, Nets: i, Stages: 2 * i, Levels: 3,
			WNS: g, TNS: f,
			Endpoints: []EndpointSlack{
				{Net: name, Output: name + "o", Arrival: Interval{f, g}, Required: g, Slack: f, Verdict: core.Passes},
				{Net: "n", Output: "o", Arrival: Interval{g, f}, Required: inf, Slack: inf, Verdict: core.Unknown},
				{Net: "m", Output: "p", Arrival: Interval{1, 2}, Required: 1, Slack: -1, Verdict: core.Fails},
			},
			Paths: []Path{
				{Endpoint: name, Slack: f, Hops: []PathHop{
					{Net: name, Output: "x", InputArrival: Interval{f, g}, NetDelay: Interval{g, g}, OutputArrival: Interval{f, f}, StageDelay: g},
					{Net: "y", Output: name, StageDelay: math.Copysign(0, -1)},
				}},
				{Endpoint: "e", Slack: inf}, // no hops: null
			},
		}
		checkAgainstOracle(t, name, r)
	}
	for _, f := range floats {
		checkAgainstOracle(t, "float", &Report{Threshold: f, WNS: f, TNS: f})
	}

	// +Inf WNS, required and slack are omitted; no endpoints and no paths.
	checkAgainstOracle(t, "empty", &Report{WNS: inf})
	checkAgainstOracle(t, "empty slices", &Report{WNS: inf, Endpoints: []EndpointSlack{}, Paths: []Path{}})
	checkAgainstOracle(t, "-inf", &Report{WNS: math.Inf(-1), Endpoints: []EndpointSlack{
		{Net: "a", Output: "b", Required: math.Inf(-1), Slack: math.Inf(-1), Verdict: core.Verdict(7)},
	}})
}

func TestReportJSONRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for name, r := range map[string]*Report{
		"threshold": {Threshold: nan},
		"tns":       {TNS: nan},
		"wns":       {WNS: nan},
		"arrival":   {Endpoints: []EndpointSlack{{Arrival: Interval{0, nan}}}},
		"hop":       {Paths: []Path{{Hops: []PathHop{{StageDelay: nan}}}}},
		"inf tns":   {TNS: math.Inf(1)},
	} {
		if _, err := oracleWriteJSON(r); err == nil {
			t.Fatalf("%s: oracle accepted a non-finite value", name)
		}
		err := r.WriteJSON(&bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "unsupported value") {
			t.Errorf("%s: WriteJSON error = %v", name, err)
		}
		if _, err := r.MarshalJSON(); err == nil {
			t.Errorf("%s: MarshalJSON accepted a non-finite value", name)
		}
	}
}

// TestReportJSONAllocsConstant: encoding into a reused buffer allocates the
// same number of times whatever the report size.
func TestReportJSONAllocsConstant(t *testing.T) {
	small := randnetReport(t, 3, 2, 2, 8, Options{Threshold: 0.7, Required: 50, K: 2})
	large := randnetReport(t, 3, 6, 20, 8, Options{Threshold: 0.7, Required: 50, K: 5})
	if len(large.Endpoints) < 5*len(small.Endpoints) {
		t.Fatalf("endpoints %d vs %d: sizes too close", len(large.Endpoints), len(small.Endpoints))
	}
	allocs := func(r *Report) float64 {
		buf, err := r.AppendJSON(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if buf, err = r.AppendJSON(buf[:0], 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("allocs per encode: %v for %d endpoints, %v for %d", a, len(small.Endpoints), b, len(large.Endpoints))
	}
}

// BenchmarkReportJSON encodes the report of the 240-net × 60-node sign-off
// design (6 levels × 40 nets, threshold 0.7, required 1e5, K 5).
func BenchmarkReportJSON(b *testing.B) {
	rep := randnetReport(b, 1, 6, 40, 60, Options{Threshold: 0.7, Required: 1e5, K: 5})
	b.Run("WriteJSON", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			if err := rep.WriteJSON(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	b.Run("AppendJSON-reused", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for b.Loop() {
			var err error
			if buf, err = rep.AppendJSON(buf[:0], 0); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
}
