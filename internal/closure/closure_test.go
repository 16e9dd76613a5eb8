package closure

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mcd"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/randnet"
	"repro/internal/timing"
)

// chipDeck is the familiar demo pipeline: the sink endpoint misses its
// required time, bus_b carries a prunable stub, and the driver is weak —
// every generator has something to find.
const chipDeck = `
.design demo
.net drv
.input in
R1 in o 380
C1 o 0 0.04
.output o
.endnet
.net bus_a
.input in
U1 in far 1800 0.11
C1 far 0 0.013
.output far
.endnet
.net bus_b
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
.stage drv o bus_a 25
.stage drv o bus_b 25
.stage bus_b far sink 40
.require bus_a far 700
.require sink o 150
.end
`

func parseChip(t *testing.T) *netlist.Design {
	t.Helper()
	d, err := netlist.ParseDesign(chipDeck)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// replayCheck formats the accepted edits, reparses them, replays them on a
// fresh session over the original design, materializes, and runs a full
// from-scratch AnalyzeDesign — the claimed final WNS/TNS must reproduce to
// 1e-9 and no structural guard may fire.
func replayCheck(t *testing.T, d *netlist.Design, rep *Report, topt timing.Options) {
	t.Helper()
	script := timing.FormatEdits(rep.Edits)
	edits, err := timing.ParseEdits(script)
	if err != nil {
		t.Fatalf("reparse of accepted edits failed: %v\n%s", err, script)
	}
	sess, err := timing.NewSession(context.Background(), d, topt)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) > 0 {
		if _, err := sess.Apply(edits); err != nil {
			t.Fatalf("replay violated a structural guard: %v\n%s", err, script)
		}
	}
	repaired, err := sess.Design()
	if err != nil {
		t.Fatal(err)
	}
	full, err := timing.Analyze(context.Background(), repaired, topt)
	if err != nil {
		t.Fatalf("full re-analysis of the repaired design: %v", err)
	}
	if !closeEnough(full.WNS, rep.FinalWNS) || !closeEnough(full.TNS, rep.FinalTNS) {
		t.Fatalf("replayed WNS/TNS %g/%g, engine claimed %g/%g\n%s",
			full.WNS, full.TNS, rep.FinalWNS, rep.FinalTNS, script)
	}
}

// TestCloseChip: the demo chip starts failing and the engine drives it to
// WNS >= 0; the accepted edit list replays to the same numbers.
func TestCloseChip(t *testing.T) {
	d := parseChip(t)
	topt := timing.Options{Threshold: 0.7, K: 2, Sequential: true}
	rep, err := CloseDesign(context.Background(), d, Options{Timing: topt})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InitialWNS >= 0 {
		t.Fatalf("chip starts passing (WNS %g); the fixture is broken", rep.InitialWNS)
	}
	if !rep.Closed || rep.FinalWNS < 0 {
		t.Fatalf("engine did not close: %+v", rep)
	}
	if rep.Reason != "met" {
		t.Errorf("reason = %q, want met", rep.Reason)
	}
	if len(rep.Moves) == 0 || len(rep.Edits) == 0 {
		t.Fatalf("closed with no moves? %+v", rep)
	}
	if rep.Cost <= 0 || rep.Trials < len(rep.Moves) {
		t.Errorf("accounting looks wrong: cost %g, trials %d", rep.Cost, rep.Trials)
	}
	if rep.FinalTNS != 0 {
		t.Errorf("closed but TNS = %g", rep.FinalTNS)
	}
	replayCheck(t, d, rep, topt)
	// The frontier must start at the initial state and end at a closed one,
	// cost and WNS both ascending.
	if len(rep.Pareto) < 2 {
		t.Fatalf("pareto = %+v", rep.Pareto)
	}
	if rep.Pareto[0].Cost != 0 || rep.Pareto[0].WNS != rep.InitialWNS {
		t.Errorf("pareto[0] = %+v, want the initial state", rep.Pareto[0])
	}
	for i := 1; i < len(rep.Pareto); i++ {
		if rep.Pareto[i].Cost <= rep.Pareto[i-1].Cost || rep.Pareto[i].WNS <= rep.Pareto[i-1].WNS {
			t.Errorf("pareto not strictly ascending at %d: %+v", i, rep.Pareto)
		}
	}
	if last := rep.Pareto[len(rep.Pareto)-1]; last.WNS < rep.FinalWNS {
		t.Errorf("frontier tip %+v below the final state WNS %g", last, rep.FinalWNS)
	}
}

// failingRandomDesign draws a random layered design and picks a default
// required time that makes its worst endpoints fail by a healthy margin.
func failingRandomDesign(t *testing.T, seed int64) (*netlist.Design, float64) {
	t.Helper()
	return failingDesign(t, seed, 10)
}

// stageHeavyDesign is failingRandomDesign with gate delays of up to 30000,
// about one net level's delay, where failingRandomDesign's are a rounding
// error beside its nets: its paths differ in their shares of unscaled
// .stage delay, so a corner's λ can reorder them.
func stageHeavyDesign(t *testing.T, seed int64) (*netlist.Design, float64) {
	t.Helper()
	return failingDesign(t, seed, 30000)
}

// failingDesign draws the random layered design with gate delays drawn
// from (0, delayMax] and a default required time 0.8 × its latest arrival.
func failingDesign(t *testing.T, seed int64, delayMax float64) (*netlist.Design, float64) {
	t.Helper()
	cfg := randnet.DesignConfig{
		Levels:   3,
		Width:    3,
		Net:      randnet.DefaultConfig(8 + int(seed%7)),
		FaninMax: 2,
		DelayMax: delayMax,
	}
	d := randnet.DesignSeed(seed, cfg)
	probe, err := timing.Analyze(context.Background(), d, timing.Options{Threshold: 0.7, Required: 1e12, Sequential: true})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	maxArr := 0.0
	for _, ep := range probe.Endpoints {
		if ep.Arrival.Max > maxArr {
			maxArr = ep.Arrival.Max
		}
	}
	if maxArr <= 0 {
		t.Fatalf("seed %d: degenerate design", seed)
	}
	return d, 0.8 * maxArr
}

// TestClosurePropertyRandomDesigns is the acceptance property: across 50+
// randomized failing designs, the accepted edit list replays through
// ParseEdits + a fresh full AnalyzeDesign to the claimed WNS/TNS within
// 1e-9 without tripping a structural guard, and the run never leaves WNS
// worse than it found it.
func TestClosurePropertyRandomDesigns(t *testing.T) {
	designs := 50
	if testing.Short() {
		designs = 10
	}
	for seed := int64(0); seed < int64(designs); seed++ {
		d, required := failingRandomDesign(t, seed)
		topt := timing.Options{Threshold: 0.7, Required: required, Sequential: true}
		rep, err := CloseDesign(context.Background(), d, Options{Timing: topt, MaxMoves: 5, TopEndpoints: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		replayCheck(t, d, rep, topt)
		if rep.FinalWNS < rep.InitialWNS {
			t.Fatalf("seed %d: WNS regressed %g -> %g", seed, rep.InitialWNS, rep.FinalWNS)
		}
	}
}

// TestTrialForkReuseMatchesFreshForks: evaluate runs a round's trials on
// one set of forks, re-forked in place each round and Reverted after every
// trial. Its per-candidate results must be exactly those of a fresh
// Session.Fork per candidate (and a fresh fork of each corner view
// following it), with the candidates in order and reversed, at every
// accepted state of a run, on random designs with and without corners — so
// no trial sees state a previous trial or round left in a reused fork.
func TestTrialForkReuseMatchesFreshForks(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 12; seed++ {
		d, required := failingRandomDesign(t, seed)
		topt := timing.Options{Threshold: 0.7, Required: required, K: -1}
		for _, corners := range [][]mcd.Corner{nil, mcd.DefaultCorners()} {
			label := fmt.Sprintf("seed %d corners %d", seed, len(corners))
			o := Options{MaxMoves: 4, TopEndpoints: 3, Corners: corners}
			sess, err := timing.NewSession(ctx, d, topt)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Close(ctx, sess.Fork(), o)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			e := &engine{sess: sess, opt: o.resolve(), mount: scaledCorner, rep: &Report{}}
			if err := e.mountCorners(); err != nil {
				t.Fatal(err)
			}
			for j := 0; ; j++ {
				cands, _ := e.generate(sess.WorstEndpoints(e.opt.TopEndpoints))
				want := make([]trial, len(cands))
				for i, c := range cands {
					f := sess.Fork()
					res, err := f.ApplyCtx(ctx, c.Edits)
					want[i] = trial{res: res, err: err}
					if err == nil && len(e.corners) > 0 {
						want[i].corner = make([]timing.ApplyResult, len(e.corners))
						for k, cs := range e.corners {
							want[i].corner[k], err = cs.sess.Fork().Follow(ctx, f, c.Edits)
							if err != nil {
								t.Fatalf("%s: fresh corner fork: %v", label, err)
							}
						}
					}
				}
				reversed := make([]Move, len(cands))
				for i, c := range cands {
					reversed[len(cands)-1-i] = c
				}
				inOrder, backwards := e.evaluate(ctx, cands), e.evaluate(ctx, reversed)
				for i := range cands {
					for _, got := range []trial{inOrder[i], backwards[len(cands)-1-i]} {
						if fmt.Sprint(got.err) != fmt.Sprint(want[i].err) || !reflect.DeepEqual(got.res, want[i].res) || !reflect.DeepEqual(got.corner, want[i].corner) {
							t.Fatalf("%s state %d candidate %d (%s %s): reused fork %+v, fresh fork %+v",
								label, j, i, cands[i].Kind, cands[i].Net, got, want[i])
						}
					}
				}
				if j == len(rep.Moves) {
					break
				}
				edits := rep.Moves[j].Move.Edits
				if _, err := sess.Apply(edits); err != nil {
					t.Fatalf("%s: replaying move %d: %v", label, j, err)
				}
				for _, cs := range e.corners {
					if _, err := cs.follow(cs.sess, ctx, sess, edits); err != nil {
						t.Fatalf("%s: corner %s follows move %d: %v", label, cs.c.Name, j, err)
					}
				}
				e.rep.Cost = rep.Moves[j].CumCost
			}
		}
	}
}

// TestClosureStopsOnBudget: the stop conditions phrase themselves.
func TestClosureStopsOnBudget(t *testing.T) {
	d := parseChip(t)
	topt := timing.Options{Threshold: 0.7, Sequential: true}
	rep, err := CloseDesign(context.Background(), d, Options{Timing: topt, MaxMoves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Closed && len(rep.Moves) > 1 {
		t.Fatalf("budget 1 accepted %d moves", len(rep.Moves))
	}
	if !rep.Closed && rep.Reason != "move budget exhausted" {
		t.Errorf("reason = %q", rep.Reason)
	}
	if len(rep.Moves) == 1 && rep.Moves[0].WNS <= rep.InitialWNS {
		t.Errorf("the one budgeted move bought nothing: %+v", rep.Moves[0])
	}

	rep, err = CloseDesign(context.Background(), d, Options{Timing: topt, MaxCost: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Closed || len(rep.Moves) != 0 {
		t.Fatalf("closed under a zero cost ceiling: %+v", rep)
	}
	if rep.Reason != "cost ceiling reached" {
		t.Errorf("reason = %q, want cost ceiling reached", rep.Reason)
	}
}

// TestClosureAlreadyClosed: a passing design is a no-op.
func TestClosureAlreadyClosed(t *testing.T) {
	d := parseChip(t)
	rep, err := CloseDesign(context.Background(), d,
		Options{Timing: timing.Options{Threshold: 0.7, Required: 1e9, Sequential: true}})
	if err != nil {
		t.Fatal(err)
	}
	// The deck's explicit .require cards still fail; raise them out of the
	// way by closing the design's unconstrained form instead.
	d.Requires = nil
	rep, err = CloseDesign(context.Background(), d,
		Options{Timing: timing.Options{Threshold: 0.7, Required: 1e9, Sequential: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Closed || rep.Reason != "no failing endpoints" || len(rep.Moves) != 0 {
		t.Fatalf("passing design: %+v", rep)
	}
}

// TestClosureContextCancel: a cancelled context stops the loop with the
// context's error, and the partial report still rides along (it is the only
// record of the moves the session already absorbed).
func TestClosureContextCancel(t *testing.T) {
	d := parseChip(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := timing.NewSession(context.Background(), d, timing.Options{Threshold: 0.7, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Close(ctx, sess, Options{})
	if err == nil {
		t.Fatal("cancelled context did not stop the loop")
	}
	if rep == nil || rep.Reason != "cancelled" {
		t.Fatalf("partial report = %+v", rep)
	}
}

// TestFrontier: dominated points vanish, the rest sort by cost with WNS
// strictly improving.
func TestFrontier(t *testing.T) {
	pts := []ParetoPoint{
		{0, -30}, {5, -10}, {5, -12}, {3, -25}, {8, -10}, {10, -2}, {7, -40},
	}
	got := frontier(pts)
	want := []ParetoPoint{{0, -30}, {3, -25}, {5, -10}, {10, -2}}
	if len(got) != len(want) {
		t.Fatalf("frontier = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frontier[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReportFormats: the three renderers agree on the same run and survive
// round trips through their own consumers.
func TestReportFormats(t *testing.T) {
	d := parseChip(t)
	topt := timing.Options{Threshold: 0.7, Sequential: true}
	rep, err := CloseDesign(context.Background(), d, Options{Timing: topt})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Summary()
	for _, want := range []string{"closure demo", "closed: met", "pareto frontier", "accepted ECO edits"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary lacks %q:\n%s", want, text)
		}
	}
	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rep.Moves)+2 { // header + initial + moves
		t.Errorf("csv rows = %d, want %d", len(rows), len(rep.Moves)+2)
	}
	if rows[1][1] != "initial" {
		t.Errorf("csv row 1 = %v", rows[1])
	}
	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Closed     bool    `json:"closed"`
		FinalWNS   float64 `json:"finalWns"`
		EditScript string  `json:"editScript"`
		Trajectory []struct {
			Kind string `json:"kind"`
		} `json:"trajectory"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.Closed || decoded.FinalWNS != rep.FinalWNS || len(decoded.Trajectory) != len(rep.Moves) {
		t.Errorf("json round trip = %+v", decoded)
	}
	if _, err := timing.ParseEdits(decoded.EditScript); err != nil {
		t.Errorf("editScript does not reparse: %v", err)
	}
}

// TestClosureCorners: a corner-aware run on the demo chip must (1) only
// report closed when every swept corner meets timing and (2) keep each
// corner view an elementwise-scaled view of the repaired design — verified
// by replaying the corner-scaled edit list on an explicitly-scaled original
// and re-analyzing from scratch.
func TestClosureCorners(t *testing.T) {
	d := parseChip(t)
	topt := timing.Options{Threshold: 0.7, Sequential: true}
	base := Options{Timing: topt, MaxMoves: 64, Corners: mcd.DefaultCorners()}

	rep, err := CloseDesign(context.Background(), d, base)
	if err != nil {
		t.Fatal(err)
	}
	// typ has scales (1,1) and rides on the main session, so only slow and
	// fast mount views.
	if len(rep.Corners) != 2 {
		t.Fatalf("corners = %+v, want slow and fast", rep.Corners)
	}
	if rep.Corners[0].Name != "slow" || rep.Corners[1].Name != "fast" {
		t.Fatalf("corner order = %+v", rep.Corners)
	}
	// The slow corner starts strictly worse than typ.
	if !(rep.Corners[0].InitialWNS < rep.InitialWNS) {
		t.Errorf("slow corner initial WNS %g not worse than typ %g",
			rep.Corners[0].InitialWNS, rep.InitialWNS)
	}
	if rep.Closed {
		if rep.FinalWNS < 0 {
			t.Errorf("closed with typ WNS %g", rep.FinalWNS)
		}
		for _, c := range rep.Corners {
			if c.FinalWNS < 0 {
				t.Errorf("closed with corner %s WNS %g", c.Name, c.FinalWNS)
			}
		}
	} else if rep.FinalWNS >= 0 && rep.Corners[0].FinalWNS >= 0 && rep.Corners[1].FinalWNS >= 0 {
		t.Error("all corners meet timing but the run is not closed")
	}
	// Scaled-edits invariant: replaying the corner-scaled edit list on an
	// explicitly-scaled original design reproduces each corner's final WNS.
	for i, c := range base.Corners {
		if c.RScale == 1 && c.CScale == 1 {
			continue
		}
		rf := make([]float64, len(d.Nets))
		cf := make([]float64, len(d.Nets))
		for j := range rf {
			rf[j], cf[j] = c.RScale, c.CScale
		}
		sd, err := mcd.ScaleDesign(d, rf, cf)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := timing.NewSession(context.Background(), sd, topt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Edits) > 0 {
			if _, err := sess.Apply(scaleEdits(rep.Edits, c)); err != nil {
				t.Fatalf("corner %s: scaled replay tripped a guard: %v", c.Name, err)
			}
		}
		got := sess.Report().WNS
		var want float64
		switch c.Name {
		case "slow":
			want = rep.Corners[0].FinalWNS
		case "fast":
			want = rep.Corners[1].FinalWNS
		}
		if !closeEnough(got, want) {
			t.Errorf("corner %s (idx %d): scaled replay WNS %g, engine claimed %g", c.Name, i, got, want)
		}
	}
}

// scaleEdits maps a typical-corner edit list into an elementwise-scaled
// design's value space: absolute R values scale by RScale, absolute C
// values by CScale; relative factors and structural edits carry over
// unchanged. It keeps a scaled copy of the design exactly the scaled copy
// of the edited one.
func scaleEdits(edits []timing.Edit, c mcd.Corner) []timing.Edit {
	out := make([]timing.Edit, len(edits))
	for i, ed := range edits {
		if ed.R != nil {
			ed.R = ptr(*ed.R * c.RScale)
		}
		if ed.C != nil {
			ed.C = ptr(*ed.C * c.CScale)
		}
		out[i] = ed
	}
	return out
}

// shadowCorner is the corner path Session.Scaled replaced, kept as the
// oracle: a fresh session on the ScaleDesign'd materialization of the
// design, which applies each move's edits through scaleEdits instead of
// following the typical session.
func shadowCorner(t *testing.T) func(*timing.Session, mcd.Corner) *cornerState {
	return func(sess *timing.Session, c mcd.Corner) *cornerState {
		t.Helper()
		d, err := sess.Design()
		if err != nil {
			t.Fatal(err)
		}
		rf := make([]float64, len(d.Nets))
		cf := make([]float64, len(d.Nets))
		for i := range rf {
			rf[i], cf[i] = c.RScale, c.CScale
		}
		sd, err := mcd.ScaleDesign(d, rf, cf)
		if err != nil {
			t.Fatal(err)
		}
		shadow, err := timing.NewSession(context.Background(), sd, timing.Options{
			Threshold: sess.Threshold(), Required: sess.Required(), K: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &cornerState{c: c, sess: shadow,
			follow: func(v *timing.Session, ctx context.Context, _ *timing.Session, e []timing.Edit) (timing.ApplyResult, error) {
				return v.ApplyCtx(ctx, scaleEdits(e, c))
			}}
	}
}

// TestScaledCornersMatchShadowSessions runs each corner-aware closure twice,
// once on Session.Scaled corner views that follow the typical session and
// once on the shadow sessions they replaced, over the demo chip, the
// relaxed chip (mined from its slow corner), 12 random failing designs and
// 8 stage-heavy ones under three corner sets. The runs must accept the same
// edit script and stop for the same reason after the same trials and
// vetoes, and every corner trial and accepted move must time each corner's
// WNS and TNS within 1e-9 relative — the numbers every veto and every
// corner-scored gain is decided on.
//
// No run vetoes: every move generator only lowers resistance or
// capacitance, and the bounds never rise when they fall, so no move slows a
// path at any corner. The per-trial comparison carries the check instead.
func TestScaledCornersMatchShadowSessions(t *testing.T) {
	cornerSets := [][]mcd.Corner{
		mcd.DefaultCorners(),
		{{Name: "rslow", RScale: 1.3, CScale: 0.9}, {Name: "cslow", RScale: 0.95, CScale: 1.25}},
		{{Name: "skew", RScale: 1.07, CScale: 1.07}},
	}
	type design struct {
		name string
		d    *netlist.Design
		topt timing.Options
	}
	designs := []design{
		{"chip", parseChip(t), timing.Options{Threshold: 0.7}},
		{"relaxed chip", relaxedChip(t), timing.Options{Threshold: 0.7}},
	}
	for seed := int64(0); seed < 12; seed++ {
		d, required := failingRandomDesign(t, seed)
		designs = append(designs, design{fmt.Sprint("seed ", seed), d, timing.Options{Threshold: 0.7, Required: required}})
	}
	for seed := int64(0); seed < 8; seed++ {
		d, required := stageHeavyDesign(t, seed)
		designs = append(designs, design{fmt.Sprint("stage-heavy seed ", seed), d, timing.Options{Threshold: 0.7, Required: required}})
	}
	ctx := context.Background()
	// followed is one corner re-timing: a trial's or an accepted move's.
	type followed struct {
		corner, edits string
		wns, tns      float64
		err           bool
	}
	for _, dz := range designs {
		for k, corners := range cornerSets {
			label := fmt.Sprintf("%s corners %d", dz.name, k)
			run := func(mount func(*timing.Session, mcd.Corner) *cornerState) (*Report, []followed) {
				sess, err := timing.NewSession(ctx, dz.d, dz.topt)
				if err != nil {
					t.Fatal(err)
				}
				var log []followed
				record := func(s *timing.Session, c mcd.Corner) *cornerState {
					cs := mount(s, c)
					follow := cs.follow
					cs.follow = func(v *timing.Session, ctx context.Context, src *timing.Session, e []timing.Edit) (timing.ApplyResult, error) {
						res, err := follow(v, ctx, src, e)
						log = append(log, followed{c.Name, timing.FormatEdits(e), res.WNS, res.TNS, err != nil})
						return res, err
					}
					return cs
				}
				e := &engine{sess: sess, opt: Options{MaxMoves: 16, Corners: corners}.resolve(), mount: record}
				rep, err := e.run(ctx)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return rep, log
			}
			got, gotLog := run(scaledCorner)
			want, wantLog := run(shadowCorner(t))
			if len(gotLog) != len(wantLog) {
				t.Fatalf("%s: %d corner re-timings, shadow %d", label, len(gotLog), len(wantLog))
			}
			for i, g := range gotLog {
				w := wantLog[i]
				if g.corner != w.corner || g.edits != w.edits || g.err != w.err || !closeEnough(g.wns, w.wns) || !closeEnough(g.tns, w.tns) {
					t.Fatalf("%s: corner re-timing %d: %+v, shadow %+v", label, i, g, w)
				}
			}
			if g, w := timing.FormatEdits(got.Edits), timing.FormatEdits(want.Edits); g != w {
				t.Fatalf("%s: scaled views accepted\n%s\nshadow sessions\n%s", label, g, w)
			}
			if got.Reason != want.Reason || got.Closed != want.Closed || got.CornerVetoes != want.CornerVetoes || got.Trials != want.Trials {
				t.Fatalf("%s: reason %q closed %v vetoes %d trials %d, shadow %q %v %d %d", label,
					got.Reason, got.Closed, got.CornerVetoes, got.Trials, want.Reason, want.Closed, want.CornerVetoes, want.Trials)
			}
			if got.FinalWNS != want.FinalWNS || got.FinalTNS != want.FinalTNS {
				t.Fatalf("%s: typical WNS/TNS %g/%g, shadow %g/%g", label, got.FinalWNS, got.FinalTNS, want.FinalWNS, want.FinalTNS)
			}
			for i, c := range got.Corners {
				w := want.Corners[i]
				if c.Name != w.Name || !closeEnough(c.InitialWNS, w.InitialWNS) || !closeEnough(c.FinalWNS, w.FinalWNS) {
					t.Fatalf("%s: corner %+v, shadow %+v", label, c, w)
				}
			}
		}
	}
}

// TestClosureCornersMineFromCorner: when the typical corner passes but the
// slow corner fails, candidates must be mined from the failing corner's
// endpoint table rather than stopping at "no candidates".
func TestClosureCornersMineFromCorner(t *testing.T) {
	d := relaxedChip(t)
	topt := timing.Options{Threshold: 0.7, Sequential: true}
	rep, err := CloseDesign(context.Background(), d, Options{
		Timing: topt, MaxMoves: 64, Corners: mcd.DefaultCorners(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InitialWNS < 0 {
		t.Fatalf("typ should start passing, WNS %g", rep.InitialWNS)
	}
	if rep.Corners[0].InitialWNS >= 0 {
		t.Fatalf("slow corner should start failing, WNS %g", rep.Corners[0].InitialWNS)
	}
	if len(rep.Moves) == 0 {
		t.Fatalf("no moves accepted mining the slow corner: %+v", rep)
	}
	if rep.Corners[0].FinalWNS <= rep.Corners[0].InitialWNS {
		t.Errorf("slow corner did not improve: %g -> %g",
			rep.Corners[0].InitialWNS, rep.Corners[0].FinalWNS)
	}
	// The typical corner must never regress below zero while repairing slow.
	if rep.FinalWNS < 0 {
		t.Errorf("repairing the slow corner broke typ: WNS %g", rep.FinalWNS)
	}
}

// relaxedChip is the demo chip with its requires relaxed so the typical
// corner passes but the default slow corner (+15% R and C) still fails.
func relaxedChip(t *testing.T) *netlist.Design {
	t.Helper()
	d := parseChip(t)
	probe, err := timing.Analyze(context.Background(), d, timing.Options{Threshold: 0.7, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// Set each require between the typ arrival and the slow-corner arrival
	// (global scaling of R and C by 1.15 each scales arrivals by ~1.32).
	byKey := map[[2]string]float64{}
	for _, ep := range probe.Endpoints {
		byKey[[2]string{ep.Net, ep.Output}] = ep.Arrival.Max
	}
	for i := range d.Requires {
		arr := byKey[[2]string{d.Requires[i].Net, d.Requires[i].Output}]
		d.Requires[i].Time = arr * 1.1 // typ meets with 10%; slow (+32%) fails
	}
	return d
}

// TestClosureRejectsBadCornerScales: a corner scale that is not finite and
// positive is an options error naming the corner and the field; a NaN
// corner would otherwise time NaN and never veto a move.
func TestClosureRejectsBadCornerScales(t *testing.T) {
	cases := []struct {
		name           string
		rScale, cScale float64
		want           string
	}{
		{"zero r", 0, 1, `corner "bad" rScale must be finite and > 0, got 0`},
		{"negative c", 1, -1, `corner "bad" cScale must be finite and > 0, got -1`},
		{"NaN r", math.NaN(), 1, `corner "bad" rScale must be finite and > 0, got NaN`},
		{"NaN c", 1, math.NaN(), `corner "bad" cScale must be finite and > 0, got NaN`},
		{"+Inf r", math.Inf(1), 1, `corner "bad" rScale must be finite and > 0, got +Inf`},
		{"+Inf c", 1, math.Inf(1), `corner "bad" cScale must be finite and > 0, got +Inf`},
		{"-Inf r", math.Inf(-1), 1, `corner "bad" rScale must be finite and > 0, got -Inf`},
		{"-Inf c", 1, math.Inf(-1), `corner "bad" cScale must be finite and > 0, got -Inf`},
	}
	d := parseChip(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corners := append(mcd.DefaultCorners(), mcd.Corner{Name: "bad", RScale: tc.rScale, CScale: tc.cScale})
			_, err := CloseDesign(context.Background(), d, Options{
				Timing: timing.Options{Threshold: 0.7, Sequential: true}, MaxMoves: 4, Corners: corners,
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestGenerateFromWorstEndpointsMatchesFullTable: at every accepted state of
// several runs, mining the session's WorstEndpoints yields exactly the
// candidates (and cost-filter verdict) that mining the full report's
// endpoint table does.
func TestGenerateFromWorstEndpointsMatchesFullTable(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d, required := failingRandomDesign(t, seed)
		topt := timing.Options{Threshold: 0.7, Required: required, Sequential: true}
		o := Options{Timing: topt, MaxMoves: 6, TopEndpoints: 1 + int(seed%4)}
		if seed%3 == 2 {
			o.MaxCost = 12 // let the ceiling filter some candidates
		}
		rep, err := CloseDesign(context.Background(), d, o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		o = o.resolve()
		sess, err := timing.NewSession(context.Background(), d, topt)
		if err != nil {
			t.Fatal(err)
		}
		cost := 0.0
		for j := 0; ; j++ {
			fast := &engine{sess: sess, opt: o, rep: &Report{Cost: cost}}
			full := &engine{sess: sess, opt: o, rep: &Report{Cost: cost}}
			got, gotFiltered := fast.generate(sess.WorstEndpoints(o.TopEndpoints))
			want, wantFiltered := full.generate(sess.Report().Endpoints)
			if !reflect.DeepEqual(got, want) || gotFiltered != wantFiltered || fast.rep.GuidedProbes != full.rep.GuidedProbes {
				t.Fatalf("seed %d state %d: WorstEndpoints mined %d candidates (filtered %v), full table %d (filtered %v)",
					seed, j, len(got), gotFiltered, len(want), wantFiltered)
			}
			if j == len(rep.Moves) {
				break
			}
			if _, err := sess.Apply(rep.Moves[j].Move.Edits); err != nil {
				t.Fatalf("seed %d: replaying move %d: %v", seed, j, err)
			}
			cost = rep.Moves[j].CumCost
		}
	}
}

// TestClosureMaxCost: a NaN MaxCost is an options error naming the field,
// from Close and CloseDesign alike; every cost check against NaN is false,
// so the run would otherwise have no ceiling. +Inf, 0 and negative values
// mean "no ceiling" and accept what the default options accept.
func TestClosureMaxCost(t *testing.T) {
	d := parseChip(t)
	topt := timing.Options{Threshold: 0.7, Sequential: true}
	ref, err := CloseDesign(context.Background(), d, Options{Timing: topt})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		maxCost float64
		wantErr string
	}{
		{"NaN", math.NaN(), "closure: MaxCost is NaN"},
		{"+Inf", math.Inf(1), ""},
		{"zero", 0, ""},
		{"negative", -5, ""},
		{"-Inf", math.Inf(-1), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Timing: topt, MaxCost: tc.maxCost}
			sess, err := timing.NewSession(context.Background(), d, topt)
			if err != nil {
				t.Fatal(err)
			}
			viaClose, closeErr := Close(context.Background(), sess, o)
			rep, err := CloseDesign(context.Background(), d, o)
			if tc.wantErr != "" {
				for _, err := range []error{closeErr, err} {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("error = %v, want %q", err, tc.wantErr)
					}
				}
				return
			}
			if closeErr != nil || err != nil {
				t.Fatalf("errors %v, %v", closeErr, err)
			}
			for _, got := range []*Report{viaClose, rep} {
				if g, w := timing.FormatEdits(got.Edits), timing.FormatEdits(ref.Edits); g != w || got.Reason != ref.Reason {
					t.Fatalf("reason %q edits\n%s\nwant %q\n%s", got.Reason, g, ref.Reason, w)
				}
			}
		})
	}
}

// TestClosureCountsForksTaken: closure_forks_total counts the forks a run
// takes — each round, one fork of the session and one of each swept
// corner's view — and closure_trials_total the trials. The runs spend their
// whole move budget, so every round is an accepted move's.
func TestClosureCountsForksTaken(t *testing.T) {
	d, required := failingRandomDesign(t, 3)
	topt := timing.Options{Threshold: 0.7, Required: required, Sequential: true}
	for _, tc := range []struct {
		name    string
		corners []mcd.Corner
	}{
		{"typical", nil},
		{"corners", mcd.DefaultCorners()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			rep, err := CloseDesign(context.Background(), d, Options{
				Timing: topt, MaxMoves: 3, Corners: tc.corners, Obs: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reason != "move budget exhausted" {
				t.Fatalf("reason %q: the test needs a run that spends its budget", rep.Reason)
			}
			var trials int64
			for _, m := range rep.Moves {
				trials += int64(m.Candidates)
			}
			if got, want := reg.Counter("closure_forks_total").Value(), int64(len(rep.Moves)*(1+len(rep.Corners))); got != want {
				t.Errorf("closure_forks_total = %d, want %d", got, want)
			}
			if got := reg.Counter("closure_trials_total").Value(); got != trials || got != int64(rep.Trials) {
				t.Errorf("closure_trials_total = %d, want %d (report: %d)", got, trials, rep.Trials)
			}
		})
	}
}
