package timing

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/randnet"
)

// sessionPrint renders everything a reader can observe of a session's
// timing state, numbers in shortest round-trip form so equal prints mean
// bit-identical state: Summary, the worst endpoints, the report assembled
// afresh from the state and the memoized one, the snapshot deck, and every
// net's input arrival and output delays and arrivals.
func sessionPrint(t *testing.T, s *Session) string {
	t.Helper()
	wns, tns := s.Summary()
	b := fmt.Appendf(nil, "summary %v %v\nworst", wns, tns)
	for _, ep := range s.WorstEndpoints(8) {
		b = fmt.Appendf(b, " %s.%s %v %v %v", ep.Net, ep.Output, ep.Arrival.Min, ep.Arrival.Max, ep.Slack)
	}
	b = append(b, "\nreport "...)
	var err error
	if b, err = s.g.report(s.state, s.th, s.k, s.required).AppendJSON(b, 1); err != nil {
		t.Fatalf("report: %v", err)
	}
	b = append(b, "\nmemo "...)
	if b, err = s.Report().AppendJSON(b, 1); err != nil {
		t.Fatalf("memoized report: %v", err)
	}
	b = append(b, "\ndeck "...)
	if b, err = s.AppendDeck(b); err != nil {
		t.Fatalf("deck: %v", err)
	}
	for i := range s.g.nodes {
		net := s.g.nodes[i].name
		in, _ := s.InputArrival(net)
		b = fmt.Appendf(b, "\n%s in %v", net, in)
		for _, name := range s.state[i].names {
			d, _ := s.NetDelay(net, name)
			a, _ := s.Arrival(net, name)
			b = fmt.Appendf(b, " %s %v %v", name, d, a)
		}
	}
	return string(b)
}

// trialBatch draws a random edit batch against s — output edits, grows,
// prunes or any op, which the structural guards may refuse — and now and
// then splices in an edit that is sure to fail, so trials also stop midway.
func trialBatch(rng *rand.Rand, s *Session, seq *int) []Edit {
	batch := randomBatch(rng, s, seq)
	if rng.Intn(4) == 0 {
		bad := []Edit{
			{Op: "setR", Net: batch[0].Net, Node: "no-such-node", R: f64(1)},
			{Op: "setR", Net: batch[0].Net, Node: batch[0].Node, R: f64(-1)},
			{Op: "frobnicate", Net: batch[0].Net},
		}[rng.Intn(3)]
		k := rng.Intn(len(batch) + 1)
		batch = append(batch[:k], append([]Edit{bad}, batch[k:]...)...)
	}
	return batch
}

// trialApply runs batch as a closure trial does: on fork f of a session it
// applies the batch; when f is a fork of a Scaled view, src — a fork of the
// view's source — applies it and f follows the prefix src applied, and the
// result is f's, with src's error.
func trialApply(f, src *Session, batch []Edit) (ApplyResult, error) {
	if src == nil {
		return f.Apply(batch)
	}
	res, err := src.Apply(batch)
	fres, ferr := f.Follow(context.Background(), src, batch[:res.Applied])
	if ferr != nil {
		return fres, ferr
	}
	return fres, err
}

// errText is an error's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestRevertMatchesFreshFork: one fork runs trial after trial, Reverted
// between them, on random designs whose parent is a session, an edited
// session or a Scaled view (whose fork follows a fork of the view's source,
// itself Reverted alongside). Every trial's ApplyResult and error must equal
// those of the same batch on a fresh Fork, the fork's state after the trial
// must equal the fresh fork's, and after each Revert the fork must print
// exactly as its parent does — the live slack JSON and the deck of the
// trees it borrowed included, which only stay right if Revert marks and
// restores what it changed.
func TestRevertMatchesFreshFork(t *testing.T) {
	designs := 60
	if testing.Short() {
		designs = 12
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < designs; n++ {
		d, required := worstDesign(t, rng)
		s := newTestSession(t, d, Options{Threshold: 0.6, Required: required})
		seq := 0
		for k := rng.Intn(4); k > 0; k-- {
			s.Apply(randomBatch(rng, s, &seq)) // refusals keep the applied prefix
		}
		p, kind := s, "session"
		var src, rsrc *Session // on a view: the source, and r's fork of it
		if n%3 == 2 {
			p, kind = s.Scaled(0.5+1.5*rng.Float64()), "scaled view"
			src, rsrc = s, s.Fork()
		}
		want := sessionPrint(t, p)
		r := p.Fork()
		for trial := 0; trial < 10; trial++ {
			label := fmt.Sprintf("design %d (%s) trial %d", n, kind, trial)
			fresh := p.Fork()
			var freshSrc *Session
			if src != nil {
				freshSrc = src.Fork()
			}
			for b := 1 + rng.Intn(2); b > 0; b-- { // one or two Applies per trial
				batch := trialBatch(rng, p, &seq)
				wantRes, wantErr := trialApply(fresh, freshSrc, batch)
				gotRes, gotErr := trialApply(r, rsrc, batch)
				if errText(gotErr) != errText(wantErr) {
					t.Fatalf("%s: error %q, fresh fork %q", label, errText(gotErr), errText(wantErr))
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s: result %+v, fresh fork %+v", label, gotRes, wantRes)
				}
			}
			renderAtRandom(t, rng, r, label)
			if got, want := sessionPrint(t, r), sessionPrint(t, fresh); got != want {
				t.Fatalf("%s: trial state differs from a fresh fork's at byte %d", label, firstDiff([]byte(got), []byte(want)))
			}
			if err := r.Revert(); err != nil {
				t.Fatalf("%s: Revert: %v", label, err)
			}
			if rsrc != nil {
				if err := rsrc.Revert(); err != nil {
					t.Fatalf("%s: source fork Revert: %v", label, err)
				}
			}
			if r.Gen() != p.Gen() {
				t.Fatalf("%s: reverted gen %d, parent %d", label, r.Gen(), p.Gen())
			}
			assertLiveReport(t, r, label+" reverted")
			if got := sessionPrint(t, r); got != want {
				t.Fatalf("%s: reverted fork differs from its parent at byte %d", label, firstDiff([]byte(got), []byte(want)))
			}
		}
		if got := sessionPrint(t, p); got != want {
			t.Fatalf("design %d (%s): the parent moved under its forks' trials", n, kind)
		}
	}
}

// TestRevertRefused: Revert needs a fork whose parent has not changed since
// the Fork. A session and a Scaled view have no parent state; a parent that
// applied an edit, or a parent fork that reverted and applied another edit
// back to the same gen, refuses its forks' Reverts. A refused parent edit
// changes nothing, so it does not.
func TestRevertRefused(t *testing.T) {
	d := randnet.DesignSeed(3, randnet.DefaultDesignConfig(3, 3))
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e3})
	if s.Revert() == nil {
		t.Fatal("a session reverted")
	}
	if s.Scaled(1.3).Revert() == nil {
		t.Fatal("a Scaled view reverted to its unscaled parent")
	}
	if err := s.Scaled(1.3).Fork().Revert(); err != nil {
		t.Fatalf("a fork of a Scaled view: %v", err)
	}
	edit := func(f float64) []Edit { return []Edit{{Op: "scaleDriver", Net: "l0n0", Factor: f64(f)}} }

	f := s.Fork()
	if _, err := s.Apply(edit(0.5)); err != nil {
		t.Fatal(err)
	}
	if f.Revert() == nil {
		t.Fatal("a fork reverted after its parent applied an edit")
	}

	f = s.Fork()
	if _, err := f.Apply(edit(0.8)); err != nil {
		t.Fatal(err)
	}
	g := f.Fork()
	if err := f.Revert(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Apply(edit(0.6)); err != nil {
		t.Fatal(err)
	}
	if f.Gen() != g.Gen() {
		t.Fatalf("setup: parent gen %d, fork's %d", f.Gen(), g.Gen())
	}
	if g.Revert() == nil {
		t.Fatal("a fork reverted after its parent reverted and applied another edit to the same gen")
	}

	f = s.Fork()
	if _, err := s.Apply([]Edit{{Op: "setC", Net: "l0n0", Node: "no-such-node", C: f64(1)}}); err == nil {
		t.Fatal("setup: the refused edit applied")
	}
	if err := f.Revert(); err != nil {
		t.Fatalf("a refused parent edit blocked Revert: %v", err)
	}
}

// TestRevertSiblingForksRace: sibling forks of one parent run trials on
// their own goroutines, each Applying a batch and Reverting, as closure's
// trial workers do. Under -race this checks that Revert only reads the
// parent; each trial's result must equal the same batch on a fresh fork.
func TestRevertSiblingForksRace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d, required := worstDesign(t, rng)
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: required})
	const workers, trials = 4, 48
	seq := 0
	batches := make([][]Edit, trials)
	want := make([]ApplyResult, trials)
	wantErr := make([]string, trials)
	for i := range batches {
		batches[i] = trialBatch(rng, s, &seq)
		res, err := s.Fork().Apply(batches[i])
		want[i], wantErr[i] = res, errText(err)
	}
	forks := make([]*Session, workers)
	for w := range forks {
		forks[w] = s.Fork()
	}
	got := make([]ApplyResult, trials)
	gotErr := make([]string, trials)
	var wg sync.WaitGroup
	for w := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < trials; i += workers {
				res, err := forks[w].Apply(batches[i])
				got[i], gotErr[i] = res, errText(err)
				if err := forks[w].Revert(); err != nil {
					t.Errorf("worker %d trial %d: Revert: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range batches {
		if gotErr[i] != wantErr[i] || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("trial %d: %+v %q, fresh fork %+v %q", i, got[i], gotErr[i], want[i], wantErr[i])
		}
	}
}

// TestForkIntoMatchesFreshFork: a trial fork re-forked in place each round
// while its parent moves on between rounds, as closure's worker forks are,
// must print as its parent right after ForkInto, and every trial on it must
// give the ApplyResult, error and state of the same batch on a fresh Fork —
// although it reuses the trees earlier trials cloned, for the same nets
// (whose memo stamps then collide) and for others. A Scaled view's fork
// follows a fork of the view's source, re-forked alongside it; the view
// moves on by following its source.
func TestForkIntoMatchesFreshFork(t *testing.T) {
	designs := 24
	if testing.Short() {
		designs = 6
	}
	rng := rand.New(rand.NewSource(13))
	for n := 0; n < designs; n++ {
		d, required := worstDesign(t, rng)
		s := newTestSession(t, d, Options{Threshold: 0.6, Required: required})
		p, kind := s, "session"
		var src, rsrc *Session // on a view: the source, and r's fork of it
		if n%3 == 2 {
			p, kind, src = s.Scaled(0.5+1.5*rng.Float64()), "scaled view", s
		}
		seq := 0
		var r *Session
		for round := 0; round < 6; round++ {
			r = p.ForkInto(r)
			if src != nil {
				rsrc = src.ForkInto(rsrc)
			}
			label := fmt.Sprintf("design %d (%s) round %d", n, kind, round)
			if got, want := sessionPrint(t, r), sessionPrint(t, p); got != want {
				t.Fatalf("%s: re-forked fork differs from its parent at byte %d", label, firstDiff([]byte(got), []byte(want)))
			}
			net := p.g.nodes[rng.Intn(len(p.g.nodes))].name
			for trial := 0; trial < 4; trial++ {
				fresh := p.Fork()
				var freshSrc *Session
				if src != nil {
					freshSrc = src.Fork()
				}
				batch := trialBatch(rng, p, &seq)
				if trial < 2 { // two trials on one net from one state: the second reuses the first's tree
					batch = []Edit{{Op: "scaleDriver", Net: net, Factor: f64(0.5 + rng.Float64())}}
				}
				wantRes, wantErr := trialApply(fresh, freshSrc, batch)
				gotRes, gotErr := trialApply(r, rsrc, batch)
				if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s trial %d: %+v %q, fresh fork %+v %q", label, trial, gotRes, errText(gotErr), wantRes, errText(wantErr))
				}
				renderAtRandom(t, rng, r, label)
				if got, want := sessionPrint(t, r), sessionPrint(t, fresh); got != want {
					t.Fatalf("%s trial %d: state differs from a fresh fork's at byte %d", label, trial, firstDiff([]byte(got), []byte(want)))
				}
				if err := r.Revert(); err != nil {
					t.Fatalf("%s trial %d: Revert: %v", label, trial, err)
				}
				if rsrc != nil {
					if err := rsrc.Revert(); err != nil {
						t.Fatalf("%s trial %d: source fork Revert: %v", label, trial, err)
					}
				}
			}
			trialApply(p, src, randomBatch(rng, p, &seq)) // the parent moves on, as an accepted move does
		}
	}
}
