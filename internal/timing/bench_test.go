package timing

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/incr"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/randnet"
	"repro/internal/rctree"
	"repro/internal/trace"
)

// BenchmarkDesignSlack measures chip-level slack computation on a generated
// 6-level × 40-net design (240 nets), graph prebuilt:
//
//   - arena-sequential: the flat arena swept on one goroutine
//     (Options.Sequential);
//   - arena-parallel: the default, tree sweeps across GOMAXPROCS workers
//     and one DAG arrival pass.
func BenchmarkDesignSlack(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	g, err := NewGraph(design)
	if err != nil {
		b.Fatal(err)
	}
	if g.Nets() < 200 || g.Levels() < 5 {
		b.Fatalf("generated design too small: %d nets, %d levels", g.Nets(), g.Levels())
	}
	opt := Options{Threshold: 0.7, Required: 1e5, K: 5}
	run := func(b *testing.B, o Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Analyze(context.Background(), o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("arena-sequential", func(b *testing.B) {
		o := opt
		o.Sequential = true
		run(b, o)
	})
	b.Run("arena-parallel", func(b *testing.B) { run(b, opt) })
}

// BenchmarkArenaPropagation isolates the arena propagation kernel from graph
// build and report assembly: one prebuilt arena, one reusable state, one
// recycled scratch slice. The sequential pass is the zero-alloc hot path
// (the allocs/op column must read 0); the parallel pass pays only goroutine
// startup and cursor traffic on top of its tree sweeps, so comparing the two
// at GOMAXPROCS=1 vs all cores shows what sweeping nets in parallel buys
// (and costs) on a given machine.
func BenchmarkArenaPropagation(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	g, err := NewGraph(design)
	if err != nil {
		b.Fatal(err)
	}
	da := g.arena()
	ctx := context.Background()
	const th = 0.7
	run := func(b *testing.B, workers int) {
		st := da.newState()
		scratch := make([]rctree.Scratch, workers)
		if err := da.propagate(ctx, st, th, workers, scratch); err != nil {
			b.Fatal(err) // warm the scratch before measuring
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := da.propagate(ctx, st, th, workers, scratch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkArenaPropagationObs measures what telemetry costs the full
// sequential analysis path (computeState: propagation plus state
// materialization):
//
//   - disabled: nil registry and no trace in the context, the no-op path
//     every un-instrumented caller pays (one pointer test per phase, one
//     context lookup);
//   - metrics: a live registry absorbing the spans' histograms;
//   - trace: each iteration wrapped in a live trace, one root span as a
//     request middleware would open, the engine's child spans recording
//     into it.
//
// scripts/bench_trajectory.sh records metrics/disabled as metrics_overhead
// (contract <= 1.02) and trace/disabled as trace_overhead (contract <= 1.05)
// in BENCH_timing.json.
func BenchmarkArenaPropagationObs(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	g, err := NewGraph(design)
	if err != nil {
		b.Fatal(err)
	}
	g.arena() // build the arena outside the measured region
	run := func(b *testing.B, reg *obs.Registry, tracer *trace.Tracer) {
		r, err := Options{Threshold: 0.7, Sequential: true, Obs: reg}.resolve()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := context.Background()
			var root *trace.Span
			if tracer != nil {
				ctx, root = tracer.Start(ctx, "bench")
			}
			if _, err := g.computeState(ctx, r); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil, nil) })
	b.Run("metrics", func(b *testing.B) { run(b, obs.NewRegistry(), nil) })
	b.Run("trace", func(b *testing.B) {
		run(b, nil, trace.New(trace.Options{Capacity: 4, SlowThreshold: -1}))
	})
}

// BenchmarkDesignECO measures the cost of absorbing a single-net ECO edit on
// the same 240-net design, two ways:
//
//   - full-reanalyze: the pre-session workflow — re-run the whole levelized
//     analysis after the edit. The benchmark alternates between two prebuilt
//     graphs differing in one net, each with its arena already built, so
//     the cost is the full sequential arena sweep, the state cut and the
//     report build.
//   - dirty-cone: a Session absorbing the same alternating edit — one
//     O(depth) EditTree update, per-output bound refresh, and arrival
//     propagation only through the edited net's downstream cone.
//
// Both sides run sequentially. scripts/bench_trajectory.sh records the ratio
// in BENCH_timing.json.
func BenchmarkDesignECO(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	const editNet = "l3n0"
	tree := design.Net(editNet).Tree
	node := tree.Name(rctree.NodeID(1))
	_, r0, _ := tree.Edge(rctree.NodeID(1))
	rA, rB := r0*1.25, r0*0.8

	// The edited-variant design for the full-reanalysis baseline: same trees
	// everywhere except the edited net.
	variant := func(r float64) *netlist.Design {
		et := incr.New(tree)
		id, ok := et.Lookup(node)
		if !ok {
			b.Fatalf("no node %q", node)
		}
		if err := et.SetResistance(id, r); err != nil {
			b.Fatal(err)
		}
		mat, _, err := et.Materialize()
		if err != nil {
			b.Fatal(err)
		}
		d := &netlist.Design{Name: design.Name, Stages: design.Stages, Requires: design.Requires}
		for _, n := range design.Nets {
			if n.Name == editNet {
				n.Tree = mat
			}
			d.Nets = append(d.Nets, n)
		}
		return d
	}
	ctx := context.Background()
	opt := Options{Threshold: 0.7, Required: 1e5, K: 5, Sequential: true}

	b.Run("full-reanalyze", func(b *testing.B) {
		gA, err := NewGraph(variant(rA))
		if err != nil {
			b.Fatal(err)
		}
		gB, err := NewGraph(variant(rB))
		if err != nil {
			b.Fatal(err)
		}
		graphs := [2]*Graph{gA, gB}
		for _, g := range graphs {
			g.arena()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := graphs[i%2].Analyze(ctx, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dirty-cone", func(b *testing.B) {
		s, err := NewSession(ctx, design, opt)
		if err != nil {
			b.Fatal(err)
		}
		rs := [2]float64{rA, rB}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Apply([]Edit{{Op: "setR", Net: editNet, Node: node, R: &rs[i%2]}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSession mounts a session on the closure and eco workloads' shape:
// 6×40 nets of 60 nodes, required time 0.8 × the latest arrival, so most
// endpoints fail, and k critical paths per report.
func benchSession(b *testing.B, k int) *Session {
	b.Helper()
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	d := randnet.DesignSeed(10, cfg)
	probe, err := Analyze(context.Background(), d, Options{Threshold: 0.7, K: -1})
	if err != nil {
		b.Fatal(err)
	}
	latest := 0.0
	for _, ep := range probe.Endpoints {
		latest = max(latest, ep.Arrival.Max)
	}
	s, err := NewSession(context.Background(), d, Options{Threshold: 0.7, Required: 0.8 * latest, K: k})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSessionReport assembles a session's full endpoint table (no
// paths) on every iteration: classification, slack rows and the report
// sort. It is the per-read cost of the report, the memo cleared each time.
func BenchmarkSessionReport(b *testing.B) {
	s := benchSession(b, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.report = nil
		if rep := s.Report(); len(rep.Endpoints) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkWorstEndpoints ranks the 4 worst endpoints of the same session
// from its per-net aggregates — what the closure engine reads per
// iteration in place of BenchmarkSessionReport's full table.
func BenchmarkWorstEndpoints(b *testing.B) {
	s := benchSession(b, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := s.WorstEndpoints(4); len(w) != 4 {
			b.Fatalf("got %d endpoints", len(w))
		}
	}
}

// ecoBatches returns a generator of the eco workload's edit batches on s:
// one to four setR, setC or scaleDriver edits on random nets, with values
// that always apply.
func ecoBatches(s *Session, seed int64) func() []Edit {
	rng := rand.New(rand.NewSource(seed))
	return func() []Edit {
		edits := make([]Edit, 1+rng.Intn(4))
		for i := range edits {
			n := rng.Intn(len(s.trees))
			net, et := s.g.nodes[n].name, s.netTree(n)
			node := et.Name(incr.NodeID(1 + rng.Intn(et.Slots()-1)))
			switch rng.Intn(3) {
			case 0:
				edits[i] = Edit{Op: "setR", Net: net, Node: node, R: f64(1e-3 + 100*rng.Float64())}
			case 1:
				edits[i] = Edit{Op: "setC", Net: net, Node: node, C: f64(1e-6 + 10*rng.Float64())}
			default:
				edits[i] = Edit{Op: "scaleDriver", Net: net, Factor: f64(math.Exp(0.4*rng.Float64() - 0.2))}
			}
		}
		return edits
	}
}

// BenchmarkDesignSlackRead times one slack read on the eco workload's shape
// (240 nets × 60 nodes, most endpoints failing, 5 paths) after 9 eco-style
// edit batches, which run outside the timer:
//
//   - incremental: Session.AppendReportJSON, which re-derives and formats
//     only the endpoints of nets the batches changed;
//   - full: Report().AppendJSON, which assembles, sorts and formats the
//     whole table.
//
// Both render into a fresh body, as the rcserve slack handler does.
func BenchmarkDesignSlackRead(b *testing.B) {
	for _, mode := range []string{"incremental", "full"} {
		b.Run(mode, func(b *testing.B) {
			s := benchSession(b, 5)
			next := ecoBatches(s, 1)
			read := func() {
				var err error
				if mode == "full" {
					_, err = s.Report().AppendJSON(nil, 1)
				} else {
					_, err = s.AppendReportJSON(nil, 1)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			read() // the incremental renderer builds its state on its first call
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for range 9 {
					if _, err := s.Apply(next()); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				read()
			}
		})
	}
}

// BenchmarkDesignSnapshot times one WAL snapshot deck on the same shape
// after 64 eco-style edits, which run outside the timer:
//
//   - incremental: Session.AppendDeck, which materializes and formats only
//     the nets whose trees changed;
//   - full: netlist.WriteDesign(Design()), which materializes and formats
//     all 240.
func BenchmarkDesignSnapshot(b *testing.B) {
	for _, mode := range []string{"incremental", "full"} {
		b.Run(mode, func(b *testing.B) {
			s := benchSession(b, 5)
			next := ecoBatches(s, 1)
			snapshot := func() {
				if mode == "full" {
					d, err := s.Design()
					if err != nil {
						b.Fatal(err)
					}
					_ = netlist.WriteDesign(d)
				} else if _, err := s.AppendDeck(nil); err != nil {
					b.Fatal(err)
				}
			}
			snapshot() // the incremental renderer builds its state on its first call
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for edits := 0; edits < 64; {
					batch := next()
					if _, err := s.Apply(batch); err != nil {
						b.Fatal(err)
					}
					edits += len(batch)
				}
				b.StartTimer()
				snapshot()
			}
		})
	}
}

// BenchmarkVarArenaPropagate isolates the variation sweep's kernel layer on
// the corners shape (6 levels × 40 nets × 30 nodes): one SetFactors with
// per-net factors plus one sequential Propagate — a DAG arrival pass over
// λ-scaled nominal delays, no tree sweep — the work of one Monte Carlo
// sample. The allocs/op column must read 0.
func BenchmarkVarArenaPropagate(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(30)
	g, err := NewGraph(randnet.DesignSeed(1, cfg))
	if err != nil {
		b.Fatal(err)
	}
	va, err := g.VarArena(0.7, 1e5)
	if err != nil {
		b.Fatal(err)
	}
	rNet := make([]float64, va.Nets())
	cNet := make([]float64, va.Nets())
	for i := range rNet {
		rNet[i], cNet[i] = 1+0.01*float64(i%7), 1-0.01*float64(i%5)
	}
	ctx := context.Background()
	if err := va.Propagate(ctx); err != nil {
		b.Fatal(err) // warm the scratch before measuring
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := va.SetFactors(1.15, 1.15, rNet, cNet); err != nil {
			b.Fatal(err)
		}
		if err := va.Propagate(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
