package timing_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mcd"
	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/timing"
)

// scaledDesignCfg draws the small layered shape the Scaled tests edit.
func scaledDesignCfg(rng *rand.Rand) randnet.DesignConfig {
	cfg := randnet.DefaultDesignConfig(2+rng.Intn(3), 1+rng.Intn(3))
	cfg.Net = randnet.DefaultConfig(4 + rng.Intn(10))
	cfg.FaninMax = 1 + rng.Intn(3)
	return cfg
}

func newSession(t *testing.T, rng *rand.Rand) *timing.Session {
	t.Helper()
	d := randnet.Design(rng, scaledDesignCfg(rng))
	s, err := timing.NewSession(context.Background(), d, timing.Options{Threshold: 0.6, Required: 200, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertBitIdentical requires two sessions to answer Summary,
// WorstEndpoints and Report bit for bit.
func assertBitIdentical(t *testing.T, got, want *timing.Session, label string) {
	t.Helper()
	gw, gt := got.Summary()
	ww, wt := want.Summary()
	if math.Float64bits(gw) != math.Float64bits(ww) || math.Float64bits(gt) != math.Float64bits(wt) {
		t.Fatalf("%s: Summary %g/%g, want %g/%g", label, gw, gt, ww, wt)
	}
	if g, w := got.WorstEndpoints(7), want.WorstEndpoints(7); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: WorstEndpoints differ:\n%+v\n%+v", label, g, w)
	}
	if g, w := got.Report(), want.Report(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Report differs", label)
	}
}

// TestScaledOneIsBitExact: a Scaled(1) view equals its session bit for
// bit, at the mount and after it follows each edit batch the session
// applies. The view follows the whole batch, refused edits included: the
// nets past a refusal follow as no-ops.
func TestScaledOneIsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 30; n++ {
		s := newSession(t, rng)
		seq := 0
		for k := 0; k < 3; k++ {
			s.Apply(timing.RandomBatch(rng, s, &seq))
		}
		v := s.Scaled(1)
		assertBitIdentical(t, v, s, fmt.Sprintf("design %d mount", n))
		for k := 0; k < 10; k++ {
			batch := timing.RandomBatch(rng, s, &seq)
			s.Apply(batch)
			if _, err := v.Follow(context.Background(), s, batch); err != nil {
				t.Fatalf("design %d batch %d: Follow: %v", n, k, err)
			}
			assertBitIdentical(t, v, s, fmt.Sprintf("design %d batch %d", n, k))
		}
	}
}

// assertMatchesScaledDesign requires a view of λ = r·c to agree within
// 1e-9 with a fresh session on the ScaleDesign'd materialization of its
// own design: every endpoint's arrival and slack, WNS/TNS, and the ranking
// WorstEndpoints returns.
func assertMatchesScaledDesign(t *testing.T, v *timing.Session, r, c float64, label string) {
	t.Helper()
	d, err := v.Design()
	if err != nil {
		t.Fatalf("%s: materialize: %v", label, err)
	}
	rf, cf := make([]float64, len(d.Nets)), make([]float64, len(d.Nets))
	for i := range rf {
		rf[i], cf[i] = r, c
	}
	sd, err := mcd.ScaleDesign(d, rf, cf)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := timing.NewSession(context.Background(), sd, timing.Options{
		Threshold: v.Threshold(), Required: v.Required(), Sequential: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, want := v.Report(), ref.Report()
	if !close9(got.WNS, want.WNS) || !close9(got.TNS, want.TNS) {
		t.Fatalf("%s: WNS/TNS %g/%g, scaled design %g/%g", label, got.WNS, got.TNS, want.WNS, want.TNS)
	}
	if gw, gt := v.Summary(); gw != got.WNS || gt != got.TNS {
		t.Fatalf("%s: Summary %g/%g, Report %g/%g", label, gw, gt, got.WNS, got.TNS)
	}
	if len(got.Endpoints) != len(want.Endpoints) {
		t.Fatalf("%s: %d endpoints, scaled design %d", label, len(got.Endpoints), len(want.Endpoints))
	}
	type key struct{ net, output string }
	byKey := map[key]timing.EndpointSlack{}
	for _, e := range want.Endpoints {
		byKey[key{e.Net, e.Output}] = e
	}
	for _, e := range got.Endpoints {
		w, ok := byKey[key{e.Net, e.Output}]
		if !ok || !close9(e.Arrival.Min, w.Arrival.Min) || !close9(e.Arrival.Max, w.Arrival.Max) || !close9(e.Slack, w.Slack) {
			t.Fatalf("%s: endpoint %s/%s arrival %+v slack %g, scaled design %+v %g",
				label, e.Net, e.Output, e.Arrival, e.Slack, w.Arrival, w.Slack)
		}
	}
	gw, ww := v.WorstEndpoints(5), ref.WorstEndpoints(5)
	if len(gw) != len(ww) {
		t.Fatalf("%s: %d worst endpoints, scaled design %d", label, len(gw), len(ww))
	}
	for i := range gw {
		if !close9(gw[i].Slack, ww[i].Slack) {
			t.Fatalf("%s: worst endpoint %d slack %g, scaled design %g", label, i, gw[i].Slack, ww[i].Slack)
		}
	}
}

// slackState renders a session's WNS/TNS and every constrained endpoint.
func slackState(s *timing.Session) string {
	wns, tns := s.Summary()
	return fmt.Sprintf("%v %v %+v", wns, tns, s.WorstEndpoints(math.MaxInt32))
}

// state renders what a session answers without its memoized report:
// slackState and the deck of its trees.
func state(t *testing.T, s *timing.Session) string {
	t.Helper()
	d, err := s.Design()
	if err != nil {
		t.Fatal(err)
	}
	return slackState(s) + "\n" + netlist.WriteDesign(d)
}

func close9(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestScaledMatchesScaledDesign: a Scaled(r·c) view of a session, following
// the session's edits, stays the timing of the design with every R scaled
// by r and every C by c. Random edit batches land on the parent, which the
// view then follows, and on a fork of the parent, which a fork of the view
// follows (a closure trial); after each, the view and its fork must match a
// fresh session on the scaled materialization of their own design, a
// parent edit must not show in the view's slacks before it follows, and
// following must not change the parent, nor a fork's following the view.
func TestScaledMatchesScaledDesign(t *testing.T) {
	ctx := context.Background()
	corners := [][2]float64{{1.3, 0.9}, {0.95, 1.25}, {1.15, 1.15}, {0.5, 0.6}}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 40; n++ {
		s := newSession(t, rng)
		rc := corners[n%len(corners)]
		v := s.Scaled(rc[0] * rc[1])
		assertMatchesScaledDesign(t, v, rc[0], rc[1], fmt.Sprintf("design %d mount", n))
		seq := 0
		for k := 0; k < 8; k++ {
			label := fmt.Sprintf("design %d batch %d", n, k)
			before := slackState(v)
			batch := timing.RandomBatch(rng, s, &seq)
			res, _ := s.Apply(batch)
			if slackState(v) != before {
				t.Fatalf("%s: a parent edit showed in the view before it followed", label)
			}
			before = state(t, s)
			if _, err := v.Follow(ctx, s, batch[:res.Applied]); err != nil {
				t.Fatalf("%s: Follow: %v", label, err)
			}
			if state(t, s) != before {
				t.Fatalf("%s: following changed the parent", label)
			}
			assertMatchesScaledDesign(t, v, rc[0], rc[1], label)
			if k%3 == 2 {
				before = state(t, v)
				sf, f := s.Fork(), v.Fork()
				batch := timing.RandomBatch(rng, sf, &seq)
				res, _ := sf.Apply(batch)
				if _, err := f.Follow(ctx, sf, batch[:res.Applied]); err != nil {
					t.Fatalf("%s fork: Follow: %v", label, err)
				}
				assertMatchesScaledDesign(t, f, rc[0], rc[1], label+" fork")
				if state(t, v) != before {
					t.Fatalf("%s: a fork's follow showed in the view", label)
				}
			}
		}
	}
}
