package timing

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/rctree"
)

// simpleNet is a one-pole RC net: R ohms into C farads, output "o".
func simpleNet(t *testing.T, name string, r, c float64) netlist.DesignNet {
	t.Helper()
	b := rctree.NewBuilder("in")
	o := b.Resistor(rctree.Root, "o", r)
	b.Capacitor(o, c)
	b.Output(o)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return netlist.DesignNet{Name: name, Tree: tree}
}

func boundsAt(t *testing.T, tree *rctree.Tree, output string, th float64) (tmin, tmax float64) {
	t.Helper()
	id, ok := tree.Lookup(output)
	if !ok {
		t.Fatalf("no node %q", output)
	}
	tm, err := tree.CharacteristicTimes(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(tm)
	if err != nil {
		t.Fatal(err)
	}
	return b.TMin(th), b.TMax(th)
}

func TestChainArrivalComposition(t *testing.T) {
	a := simpleNet(t, "a", 10, 5)
	b := simpleNet(t, "b", 20, 3)
	d := &netlist.Design{
		Name: "chain",
		Nets: []netlist.DesignNet{a, b},
		Stages: []netlist.Stage{
			{FromNet: "a", FromOutput: "o", ToNet: "b", Delay: 7},
		},
		Requires: []netlist.Require{{Net: "b", Output: "o", Time: 500}},
	}
	const th = 0.5
	rep, err := Analyze(context.Background(), d, Options{Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nets != 2 || rep.Levels != 2 || rep.Stages != 1 {
		t.Errorf("shape: %d nets %d levels %d stages", rep.Nets, rep.Levels, rep.Stages)
	}
	if len(rep.Endpoints) != 1 {
		t.Fatalf("endpoints = %+v", rep.Endpoints)
	}
	aMin, aMax := boundsAt(t, a.Tree, "o", th)
	bMin, bMax := boundsAt(t, b.Tree, "o", th)
	ep := rep.Endpoints[0]
	wantMin, wantMax := aMin+7+bMin, aMax+7+bMax
	if math.Abs(ep.Arrival.Min-wantMin) > 1e-12 || math.Abs(ep.Arrival.Max-wantMax) > 1e-12 {
		t.Errorf("arrival = %+v, want [%g, %g]", ep.Arrival, wantMin, wantMax)
	}
	if math.Abs(ep.Slack-(500-wantMax)) > 1e-12 {
		t.Errorf("slack = %g, want %g", ep.Slack, 500-wantMax)
	}
	if ep.Verdict != core.Passes {
		t.Errorf("verdict = %v", ep.Verdict)
	}
	if math.Abs(rep.WNS-ep.Slack) > 1e-12 || rep.TNS != 0 {
		t.Errorf("WNS %g TNS %g", rep.WNS, rep.TNS)
	}
	// Critical path: a then b, root hop driven at [0,0].
	if len(rep.Paths) != 1 {
		t.Fatalf("paths = %d", len(rep.Paths))
	}
	hops := rep.Paths[0].Hops
	if len(hops) != 2 || hops[0].Net != "a" || hops[1].Net != "b" {
		t.Fatalf("hops = %+v", hops)
	}
	if hops[0].InputArrival != (Interval{0, 0}) {
		t.Errorf("primary input arrival = %+v", hops[0].InputArrival)
	}
	if hops[0].StageDelay != 7 || hops[1].StageDelay != 0 {
		t.Errorf("stage delays = %g, %g", hops[0].StageDelay, hops[1].StageDelay)
	}
	if hops[1].OutputArrival != ep.Arrival {
		t.Errorf("endpoint hop arrival %+v vs %+v", hops[1].OutputArrival, ep.Arrival)
	}
}

func TestMultiFaninHull(t *testing.T) {
	fast := simpleNet(t, "fast", 1, 1)
	slow := simpleNet(t, "slow", 100, 10)
	sink := simpleNet(t, "sink", 5, 2)
	d := &netlist.Design{
		Nets: []netlist.DesignNet{fast, slow, sink},
		Stages: []netlist.Stage{
			{FromNet: "fast", FromOutput: "o", ToNet: "sink", Delay: 1},
			{FromNet: "slow", FromOutput: "o", ToNet: "sink", Delay: 2},
		},
	}
	const th = 0.5
	rep, err := Analyze(context.Background(), d, Options{Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	fMin, _ := boundsAt(t, fast.Tree, "o", th)
	_, sMax := boundsAt(t, slow.Tree, "o", th)
	kMin, kMax := boundsAt(t, sink.Tree, "o", th)
	var ep *EndpointSlack
	for i := range rep.Endpoints {
		if rep.Endpoints[i].Net == "sink" {
			ep = &rep.Endpoints[i]
		}
	}
	if ep == nil {
		t.Fatalf("no sink endpoint in %+v", rep.Endpoints)
	}
	wantMin := fMin + 1 + kMin // earliest: fast driver, early edge
	wantMax := sMax + 2 + kMax // latest: slow driver, late edge
	if math.Abs(ep.Arrival.Min-wantMin) > 1e-12 || math.Abs(ep.Arrival.Max-wantMax) > 1e-12 {
		t.Errorf("arrival = %+v, want [%g, %g]", ep.Arrival, wantMin, wantMax)
	}
	// The critical path must run through the slow driver.
	if len(rep.Paths) == 0 {
		t.Fatal("no paths")
	}
	var sinkPath *Path
	for i := range rep.Paths {
		if rep.Paths[i].Endpoint == "sink/o" {
			sinkPath = &rep.Paths[i]
		}
	}
	if sinkPath == nil || len(sinkPath.Hops) != 2 || sinkPath.Hops[0].Net != "slow" {
		t.Errorf("critical path = %+v", sinkPath)
	}
}

func TestCycleRejected(t *testing.T) {
	a := simpleNet(t, "a", 1, 1)
	b := simpleNet(t, "b", 1, 1)
	d := &netlist.Design{
		Nets: []netlist.DesignNet{a, b},
		Stages: []netlist.Stage{
			{FromNet: "a", FromOutput: "o", ToNet: "b", Delay: 1},
			{FromNet: "b", FromOutput: "o", ToNet: "a", Delay: 1},
		},
	}
	if _, err := NewGraph(d); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not rejected: %v", err)
	}
	// Self-loop is the smallest cycle.
	d.Stages = []netlist.Stage{{FromNet: "a", FromOutput: "o", ToNet: "a", Delay: 1}}
	if _, err := NewGraph(d); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("self-loop not rejected: %v", err)
	}
}

func TestVerdicts(t *testing.T) {
	// A single-pole net has coincident bounds; a branched tree keeps
	// TMin < TMax so the Unknown window is non-empty.
	b := rctree.NewBuilder("in")
	n1 := b.Resistor(rctree.Root, "n1", 10)
	b.Capacitor(n1, 5)
	o := b.Resistor(n1, "o", 20)
	b.Capacitor(o, 3)
	side := b.Resistor(n1, "side", 15)
	b.Capacitor(side, 8)
	b.Output(o)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := netlist.DesignNet{Name: "n", Tree: tree}
	const th = 0.5
	tmin, tmax := boundsAt(t, net.Tree, "o", th)
	if tmin >= tmax {
		t.Fatalf("test net has tight bounds [%g, %g]", tmin, tmax)
	}
	cases := []struct {
		required float64
		want     core.Verdict
	}{
		{tmax + 1, core.Passes},
		{tmin - 1, core.Fails},
		{(tmin + tmax) / 2, core.Unknown},
	}
	for _, tc := range cases {
		d := &netlist.Design{
			Nets:     []netlist.DesignNet{net},
			Requires: []netlist.Require{{Net: "n", Output: "o", Time: tc.required}},
		}
		rep, err := Analyze(context.Background(), d, Options{Threshold: th})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Endpoints[0].Verdict != tc.want {
			t.Errorf("required %g: verdict = %v, want %v", tc.required, rep.Endpoints[0].Verdict, tc.want)
		}
	}
	// Failing endpoint drives WNS/TNS negative.
	d := &netlist.Design{
		Nets:     []netlist.DesignNet{net},
		Requires: []netlist.Require{{Net: "n", Output: "o", Time: tmin - 1}},
	}
	rep, err := Analyze(context.Background(), d, Options{Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WNS >= 0 || rep.TNS >= 0 {
		t.Errorf("WNS %g TNS %g for failing design", rep.WNS, rep.TNS)
	}
}

func TestUnconstrainedEndpoint(t *testing.T) {
	net := simpleNet(t, "n", 10, 5)
	d := &netlist.Design{Nets: []netlist.DesignNet{net}}
	rep, err := Analyze(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ep := rep.Endpoints[0]
	if ep.Constrained() {
		t.Errorf("endpoint constrained: %+v", ep)
	}
	if !math.IsInf(rep.WNS, 1) || rep.TNS != 0 {
		t.Errorf("WNS %g TNS %g", rep.WNS, rep.TNS)
	}
	// The default requirement constrains it.
	rep, err = Analyze(context.Background(), d, Options{Required: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Endpoints[0].Constrained() || rep.Endpoints[0].Verdict != core.Passes {
		t.Errorf("default requirement not applied: %+v", rep.Endpoints[0])
	}
}

func TestInteriorOutputWithRequireIsEndpoint(t *testing.T) {
	a := simpleNet(t, "a", 10, 5)
	b := simpleNet(t, "b", 20, 3)
	d := &netlist.Design{
		Nets:   []netlist.DesignNet{a, b},
		Stages: []netlist.Stage{{FromNet: "a", FromOutput: "o", ToNet: "b", Delay: 1}},
		Requires: []netlist.Require{
			{Net: "a", Output: "o", Time: 100}, // interior but explicitly required
		},
	}
	rep, err := Analyze(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Endpoints) != 2 {
		t.Fatalf("endpoints = %+v", rep.Endpoints)
	}
	seen := map[string]bool{}
	for _, e := range rep.Endpoints {
		seen[e.Net+"/"+e.Output] = true
	}
	if !seen["a/o"] || !seen["b/o"] {
		t.Errorf("endpoints = %+v", rep.Endpoints)
	}
}

func TestSequentialMatchesParallel(t *testing.T) {
	d := randnet.DesignSeed(42, randnet.DefaultDesignConfig(4, 6))
	opt := Options{Threshold: 0.7, Required: 1e4, K: 8}
	par, err := Analyze(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sequential = true
	seq, err := Analyze(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("parallel and sequential reports differ:\n%s\nvs\n%s", par.Summary(), seq.Summary())
	}
}

func TestAnalyzeContext(t *testing.T) {
	d := randnet.DesignSeed(3, randnet.DefaultDesignConfig(3, 4))
	if _, err := Analyze(context.Background(), d, Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Analyze(ctx, d, Options{}); err == nil {
		t.Error("canceled context not surfaced")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(context.Background(), nil, Options{}); err == nil {
		t.Error("nil design accepted")
	}
	if _, err := Analyze(context.Background(), &netlist.Design{}, Options{}); err == nil {
		t.Error("empty design accepted")
	}
	net := simpleNet(t, "n", 1, 1)
	d := &netlist.Design{Nets: []netlist.DesignNet{net}}
	for _, th := range []float64{-0.5, 1, 2} {
		if _, err := Analyze(context.Background(), d, Options{Threshold: th}); err == nil {
			t.Errorf("threshold %g accepted", th)
		}
	}
	// Stages referencing unknown nets are caught at graph build (designs
	// hand-assembled in code bypass ParseDesign's validation).
	bad := &netlist.Design{
		Nets:   []netlist.DesignNet{net},
		Stages: []netlist.Stage{{FromNet: "ghost", FromOutput: "o", ToNet: "n", Delay: 1}},
	}
	if _, err := NewGraph(bad); err == nil {
		t.Error("unknown stage net accepted")
	}
	bad.Stages[0] = netlist.Stage{FromNet: "n", FromOutput: "o", ToNet: "ghost", Delay: 1}
	if _, err := NewGraph(bad); err == nil {
		t.Error("unknown stage target accepted")
	}
	// A stage tapping a node that is not a designated output would read as
	// a silent {0,0} arrival; it must be rejected at graph build.
	two := &netlist.Design{Nets: []netlist.DesignNet{net, simpleNet(t, "m", 2, 2)}}
	two.Stages = []netlist.Stage{{FromNet: "n", FromOutput: "in", ToNet: "m", Delay: 1}}
	if _, err := NewGraph(two); err == nil || !strings.Contains(err.Error(), "not a designated output") {
		t.Errorf("non-output stage tap accepted: %v", err)
	}
	two.Stages[0].FromOutput = "ghost"
	if _, err := NewGraph(two); err == nil {
		t.Error("unknown stage output accepted")
	}
}

func TestKLimitsPaths(t *testing.T) {
	d := randnet.DesignSeed(11, randnet.DefaultDesignConfig(3, 5))
	rep, err := Analyze(context.Background(), d, Options{K: 2, Required: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 2 {
		t.Errorf("paths = %d, want 2", len(rep.Paths))
	}
	rep, err = Analyze(context.Background(), d, Options{K: -1, Required: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 0 {
		t.Errorf("paths = %d, want 0 for K<0", len(rep.Paths))
	}
}

func TestReportRendering(t *testing.T) {
	a := simpleNet(t, "a", 10, 5)
	b := simpleNet(t, "b", 20, 3)
	d := &netlist.Design{
		Name:     "demo",
		Nets:     []netlist.DesignNet{a, b},
		Stages:   []netlist.Stage{{FromNet: "a", FromOutput: "o", ToNet: "b", Delay: 7}},
		Requires: []netlist.Require{{Net: "b", Output: "o", Time: 500}},
	}
	rep, err := Analyze(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Summary()
	for _, want := range []string{"design demo", "critical path 1", "verdict", "b", "passes"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csvBuf.String(), "\n"); lines != 2 {
		t.Errorf("csv lines = %d:\n%s", lines, csvBuf.String())
	}
	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("json invalid: %v\n%s", err, jsonBuf.String())
	}
	if decoded["design"] != "demo" || decoded["nets"].(float64) != 2 {
		t.Errorf("json = %v", decoded)
	}
	// Unconstrained reports must still be valid JSON (WNS is +Inf).
	rep, err = Analyze(context.Background(), &netlist.Design{Nets: []netlist.DesignNet{a}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("unconstrained report not JSON-safe: %v", err)
	}
	if !strings.Contains(rep.Summary(), "-") {
		t.Error("unconstrained summary missing '-' placeholder")
	}
}

func TestParsedDesignEndToEnd(t *testing.T) {
	d, err := netlist.ParseDesign(`
.design pipeline
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
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(context.Background(), d, Options{Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Levels != 2 || len(rep.Endpoints) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	ep := rep.Endpoints[0]
	if ep.Net != "bus" || ep.Output != "far" || !ep.Constrained() {
		t.Errorf("endpoint = %+v", ep)
	}
	if ep.Arrival.Min <= 25 || ep.Arrival.Max <= ep.Arrival.Min {
		t.Errorf("arrival = %+v", ep.Arrival)
	}
}

// TestThresholdValidation: Analyze, NewSession and VarArena share one rule —
// 0 means the default 0.5, and anything else outside the open interval
// (0,1), NaN included, is refused.
func TestThresholdValidation(t *testing.T) {
	d := randnet.DesignSeed(3, randnet.DefaultDesignConfig(2, 2))
	g, err := NewGraph(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		v    float64
		want float64 // resolved threshold; 0 means refused
	}{
		{"NaN", math.NaN(), 0},
		{"+Inf", math.Inf(1), 0},
		{"-Inf", math.Inf(-1), 0},
		{"one", 1, 0},
		{"negative", -0.1, 0},
		{"zero", 0, 0.5},
		{"inside", 0.7, 0.7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := g.Analyze(ctx, Options{Threshold: tc.v})
			s, serr := g.Session(ctx, Options{Threshold: tc.v})
			va, verr := g.VarArena(tc.v, 0)
			if tc.want == 0 {
				if err == nil || serr == nil || verr == nil {
					t.Fatalf("threshold %g accepted: Analyze %v, Session %v, VarArena %v", tc.v, err, serr, verr)
				}
				return
			}
			if err != nil || serr != nil || verr != nil {
				t.Fatalf("threshold %g refused: Analyze %v, Session %v, VarArena %v", tc.v, err, serr, verr)
			}
			if rep.Threshold != tc.want || s.Threshold() != tc.want || va.Threshold() != tc.want {
				t.Errorf("threshold %g resolved to %g / %g / %g, want %g",
					tc.v, rep.Threshold, s.Threshold(), va.Threshold(), tc.want)
			}
		})
	}
}
