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

// TestFollowRefusals: a Scaled view, and a fork of one, refuse Apply and
// stay as they were; a session refuses Follow, with a source or without,
// and stays as it was; a view refuses a source on another graph and an
// unknown net.
func TestFollowRefusals(t *testing.T) {
	ctx := context.Background()
	d := randnet.DesignSeed(3, randnet.DefaultDesignConfig(3, 3))
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e3})
	v := s.Scaled(1.3)
	edit := []Edit{{Op: "scaleDriver", Net: "l0n0", Factor: f64(0.5)}}
	for _, tc := range []struct {
		name string
		view *Session
	}{{"view", v}, {"view fork", v.Fork()}} {
		want := sessionPrint(t, tc.view)
		res, err := tc.view.Apply(edit)
		if err == nil || res.Applied != 0 {
			t.Fatalf("a %s applied an edit: %+v", tc.name, res)
		}
		if got := sessionPrint(t, tc.view); got != want {
			t.Fatalf("a refused Apply changed the %s", tc.name)
		}
	}
	want := sessionPrint(t, s)
	for _, src := range []*Session{s.Fork(), nil} {
		if _, err := s.Follow(ctx, src, edit); err == nil {
			t.Fatal("a session followed")
		}
	}
	if got := sessionPrint(t, s); got != want {
		t.Fatal("a refused Follow changed the session")
	}
	other := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e3})
	if _, err := v.Follow(ctx, other, edit); err == nil {
		t.Fatal("a view followed a session on another graph")
	}
	if _, err := v.Follow(ctx, s, []Edit{{Op: "scaleDriver", Net: "no-such-net"}}); err == nil {
		t.Fatal("a view followed an unknown net")
	}
}

// TestFollowTrialRounds runs closure's corner-aware trial rounds: each round
// every worker re-forks the session and each of two Scaled views in place,
// and per trial applies a batch to its session fork, has its view forks
// follow that fork, then Reverts them all, on its own goroutine. Every view
// fork's result must equal the same batch followed by a fresh view fork from
// a fresh session fork. After each round every view fork must print as its
// view, hold exactly its view's tree pointers and own no tree; once it has
// followed the round's accepted batch, each view must hold the session's
// tree pointers, or nil for a net the session mounted only to inspect it (as
// closure's move generators do; a view inspects without mounting) — so no
// view or view fork ever mounts or clones a tree, and none keeps a tree a
// session fork will reuse.
func TestFollowTrialRounds(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	d, required := worstDesign(t, rng)
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: required})
	views := []*Session{s.Scaled(1.15 * 1.15), s.Scaled(0.85 * 0.85)}
	const workers, trials = 3, 12
	forks := make([][]*Session, workers) // forks[w]: a session fork, then one per view
	seq := 0
	for round := 0; round < 5; round++ {
		s.ViewNetTree(s.g.nodes[rng.Intn(len(s.g.nodes))].name)
		views[round%2].ViewNetTree(s.g.nodes[rng.Intn(len(s.g.nodes))].name)
		batches := make([][]Edit, trials)
		want := make([][]ApplyResult, trials)
		for i := range batches {
			batches[i] = trialBatch(rng, s, &seq)
			src := s.Fork()
			res, _ := src.Apply(batches[i])
			for _, v := range views {
				vres, err := v.Fork().Follow(ctx, src, batches[i][:res.Applied])
				if err != nil {
					t.Fatalf("round %d trial %d: fresh Follow: %v", round, i, err)
				}
				want[i] = append(want[i], vres)
			}
		}
		for w := range forks {
			if forks[w] == nil {
				forks[w] = make([]*Session, 1+len(views))
			}
			forks[w][0] = s.ForkInto(forks[w][0])
			for j, v := range views {
				forks[w][1+j] = v.ForkInto(forks[w][1+j])
			}
		}
		got := make([][]ApplyResult, trials)
		var wg sync.WaitGroup
		for w := range forks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f := forks[w]
				for i := w; i < trials; i += workers {
					res, _ := f[0].Apply(batches[i])
					for j := range views {
						vres, err := f[1+j].Follow(ctx, f[0], batches[i][:res.Applied])
						if err != nil {
							t.Errorf("round %d trial %d: Follow: %v", round, i, err)
							return
						}
						got[i] = append(got[i], vres)
					}
					for _, fk := range f {
						if err := fk.Revert(); err != nil {
							t.Errorf("round %d trial %d: Revert: %v", round, i, err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for i := range batches {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d trial %d: view forks %+v, fresh %+v", round, i, got[i], want[i])
			}
		}
		for j, v := range views {
			wantPrint := sessionPrint(t, v)
			for w := range forks {
				f := forks[w][1+j]
				label := fmt.Sprintf("round %d worker %d view %d", round, w, j)
				if !reflect.DeepEqual(f.trees, v.trees) {
					t.Fatalf("%s: a reverted view fork kept a tree its view does not hold", label)
				}
				assertOwnsNoTree(t, f, label)
				if got := sessionPrint(t, f); got != wantPrint {
					t.Fatalf("%s: a reverted view fork differs from its view at byte %d", label, firstDiff([]byte(got), []byte(wantPrint)))
				}
			}
		}
		// The views follow the whole accepted batch: a refused edit may have
		// re-pointed its net's tree in the session without changing it.
		accepted := randomBatch(rng, s, &seq)
		s.Apply(accepted)
		for j, v := range views {
			if _, err := v.Follow(ctx, s, accepted); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("round %d view %d", round, j)
			assertOwnsNoTree(t, v, label)
			for i := range v.trees {
				if v.trees[i] != s.trees[i] && v.trees[i] != nil {
					t.Fatalf("%s: net %s holds a tree the session does not", label, v.g.nodes[i].name)
				}
			}
		}
	}
}

// assertOwnsNoTree requires a view or view fork to own no EditTree.
func assertOwnsNoTree(t *testing.T, v *Session, label string) {
	t.Helper()
	for i, o := range v.owned {
		if o&ownTreeBit != 0 {
			t.Fatalf("%s: owns net %s's tree", label, v.g.nodes[i].name)
		}
	}
}
