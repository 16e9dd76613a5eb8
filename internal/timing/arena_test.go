package timing

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/rctree"
)

func hammerDesign(t *testing.T, seed int64, levels, width, nodes int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := randnet.DefaultDesignConfig(levels, width)
	cfg.Net = randnet.DefaultConfig(nodes)
	cfg.FaninMax = 3
	g, err := NewGraph(randnet.Design(rng, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestParallelAnalyzeRaceHammer slams one shared Graph with concurrent
// analyses whose tree sweeps run at 2 to 5 workers (plus sequential
// interlopers), whatever GOMAXPROCS is. Every goroutine must reproduce the
// baseline report bit for bit; run under -race this doubles as the proof
// that the DAG pass sees every sweep's delays.
func TestParallelAnalyzeRaceHammer(t *testing.T) {
	g := hammerDesign(t, 99, 5, 3, 20)
	ctx := context.Background()
	opt := Options{Threshold: 0.6, Required: 500, Sequential: true}
	base, err := g.Analyze(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := opt.resolve()
	if err != nil {
		t.Fatal(err)
	}
	goroutines := 8
	iters := 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := r
			r.workers = 1 + w%5
			for it := 0; it < iters; it++ {
				state, err := g.computeState(ctx, r)
				if err != nil {
					errs <- err
					return
				}
				rep := g.report(state, r.th, r.k, opt.Required)
				if !reflect.DeepEqual(rep, base) {
					t.Errorf("worker %d iter %d: report diverged from baseline", w, it)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionForkRaceHammer exercises the documented fork concurrency
// contract under load: many forks of one parent Apply their own random edits
// and read their own reports concurrently, while the parent's state stays
// frozen throughout.
func TestSessionForkRaceHammer(t *testing.T) {
	g := hammerDesign(t, 7, 4, 3, 14)
	s, err := g.Session(context.Background(), Options{Threshold: 0.6, Required: 300})
	if err != nil {
		t.Fatal(err)
	}
	parentRep := s.Report() // memoize before the forks fan out
	parentGen := s.Gen()
	forks := 8
	editsPerFork := 12
	var wg sync.WaitGroup
	for w := 0; w < forks; w++ {
		f := s.Fork() // forked serially; Apply runs concurrently per contract
		wg.Add(1)
		go func(w int, f *Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			seq := 0
			for e := 0; e < editsPerFork; e++ {
				ed := randomEdit(rng, f, &seq)
				if _, err := f.Apply([]Edit{ed}); err != nil {
					continue
				}
				rep := f.Report()
				if len(rep.Endpoints) == 0 {
					t.Errorf("fork %d: empty endpoint table", w)
					return
				}
			}
			assertMatchesFull(t, f, f.required)
		}(w, f)
	}
	wg.Wait()
	if s.Gen() != parentGen || !reflect.DeepEqual(s.Report(), parentRep) {
		t.Fatal("fork edits leaked into the parent session")
	}
}

// TestArenaPropagateSeqZeroAlloc pins the steady-state hot path: once the
// arena state and scratch exist, a full sequential propagation performs zero
// heap allocations per run.
func TestArenaPropagateSeqZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	g := hammerDesign(t, 5, 4, 3, 24)
	da := g.arena()
	st := da.newState()
	s := make([]rctree.Scratch, 1)
	ctx := context.Background()
	if err := da.propagate(ctx, st, 0.6, 1, s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := da.propagate(ctx, st, 0.6, 1, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state propagation allocates %v times per run, want 0", allocs)
	}
}

// TestArenaPropScratchReuse checks that a scratch slice recycled across
// parallel runs (the benchmark/server steady state) keeps producing results
// identical to a fresh sequential pass.
func TestArenaPropScratchReuse(t *testing.T) {
	g := hammerDesign(t, 31, 4, 2, 16)
	da := g.arena()
	want := da.newState()
	if err := da.propagate(context.Background(), want, 0.55, 1, nil); err != nil {
		t.Fatal(err)
	}
	scratch := make([]rctree.Scratch, 4)
	st := da.newState()
	for run := 0; run < 3; run++ {
		if err := da.propagate(context.Background(), st, 0.55, 4, scratch); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("run %d: reused-scratch state diverged", run)
		}
	}
}

// TestArenaAnalyzeCanceled verifies the arena paths honor context
// cancellation, sequential and parallel alike.
func TestArenaAnalyzeCanceled(t *testing.T) {
	g := hammerDesign(t, 13, 4, 2, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opt := range []Options{{Sequential: true}, {}} {
		if _, err := g.Analyze(ctx, opt); err == nil {
			t.Errorf("%+v: canceled analysis succeeded", opt)
		}
	}
	for _, workers := range []int{1, 2} {
		if _, err := g.computeState(ctx, resolved{th: 0.5, workers: workers}); err == nil {
			t.Errorf("%d workers: canceled propagation succeeded", workers)
		}
	}
}

// TestSweepNetErrorOrder pins sweepNet's first-error contract on the fused
// all-outputs sweep: when a net's second output fails validation, the first
// slot's delay is still written and the error names the second output with
// the message a per-output TimesFlat call gives.
func TestSweepNetErrorOrder(t *testing.T) {
	d, err := netlist.ParseDesign(".design e\n.net n\n.input in\nR1 in a 1\nC1 a 0 10\nR2 in b 1\n.output a\n.output b\n.endnet\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d)
	if err != nil {
		t.Fatal(err)
	}
	base := g.arena()
	if base.outName[1] != "b" {
		t.Fatalf("slot 1 is %q, want b", base.outName[1])
	}
	a := *base
	a.edgeR = append([]float64(nil), base.edgeR...)
	a.edgeR[a.nodeOff[0]+a.outLocal[1]] = -1 // b's Ree goes negative
	_, terr := rctree.TimesFlat(a.parent, a.kind, a.edgeR, a.edgeC, a.nodeC, int(a.outLocal[1]), &rctree.Scratch{})
	if terr == nil {
		t.Fatal("negative resistance passed validation")
	}
	st := a.newState()
	err = a.sweepNet(st, 0.5, 0, &rctree.Scratch{})
	if want := fmt.Sprintf("timing: net %q output %q: %v", "n", "b", terr); err == nil || err.Error() != want {
		t.Fatalf("sweepNet error %v, want %s", err, want)
	}
	if st.delayMax[0] <= 0 {
		t.Fatalf("slot a not written before the failing slot: delay %g", st.delayMax[0])
	}
}

// TestParallelSweepFirstError pins the sweep's error to the sequential one:
// with several nets made to fail, every worker count must report the
// earliest failing net in levelized order, run after run.
func TestParallelSweepFirstError(t *testing.T) {
	g := hammerDesign(t, 41, 6, 4, 16)
	base := g.arena()
	a := *base
	a.edgeR = append([]float64(nil), base.edgeR...)
	// Break one output of every third net from the second level on, so the
	// failures spread over several levels and many positions.
	broken := 0
	for _, i := range a.order[a.levelOff[1]:] {
		if i%3 != 0 || a.outOff[i] == a.outOff[i+1] {
			continue
		}
		a.edgeR[a.nodeOff[i]+a.outLocal[a.outOff[i]]] = -1
		broken++
	}
	if broken < 2 {
		t.Fatalf("only %d nets broken, want >= 2", broken)
	}
	ctx := context.Background()
	want := a.propagate(ctx, a.newState(), 0.5, 1, nil)
	if want == nil {
		t.Fatal("sequential sweep of broken nets succeeded")
	}
	for workers := 2; workers <= 5; workers++ {
		scratch := make([]rctree.Scratch, workers)
		for run := 0; run < 50; run++ {
			err := a.propagate(ctx, a.newState(), 0.5, workers, scratch)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("workers %d run %d: error %v, want %v", workers, run, err, want)
			}
		}
	}
}
