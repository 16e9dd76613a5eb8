package rcdelay

// Benchmark harness: one benchmark per paper table/figure (EXPERIMENTS.md
// index E1–E10) plus the ablations DESIGN.md calls out. The row/series
// values themselves are regenerated by cmd/experiments; these benchmarks
// measure the cost of each regeneration path and guard against accidental
// complexity regressions.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/elmore"
	"repro/internal/htree"
	"repro/internal/mc"
	"repro/internal/mos"
	"repro/internal/opt"
	"repro/internal/pla"
	"repro/internal/randnet"
	"repro/internal/sim"
	"repro/internal/waveform"
)

func fig7Tree(b *testing.B) (*Tree, NodeID) {
	b.Helper()
	tree, out, err := ParseExpression(fig7Expr)
	if err != nil {
		b.Fatal(err)
	}
	return tree, out
}

// BenchmarkE1_CharacteristicTimes measures the O(n) per-output time pass on
// a 200-element random tree.
func BenchmarkE1_CharacteristicTimes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree := randnet.Tree(rng, randnet.DefaultConfig(200))
	out := tree.Outputs()[len(tree.Outputs())-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.CharacteristicTimes(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_DelayTable regenerates the first Figure 10 table.
func BenchmarkFig10_DelayTable(b *testing.B) {
	tree, out := fig7Tree(b)
	bounds, err := BoundsFor(tree, out)
	if err != nil {
		b.Fatal(err)
	}
	vs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := bounds.DelayTable(vs)
		if len(rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig10_VoltageTable regenerates the second Figure 10 table.
func BenchmarkFig10_VoltageTable(b *testing.B) {
	tree, out := fig7Tree(b)
	bounds, err := BoundsFor(tree, out)
	if err != nil {
		b.Fatal(err)
	}
	ts := []float64{20, 40, 60, 80, 100, 200, 300, 400, 500, 1000, 2000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := bounds.VoltageTable(ts)
		if len(rows) != 11 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig11_ExactVsBounds regenerates the Figure 11 series: an
// eigen-exact solve of the Figure 7 network plus the 120-point envelope.
func BenchmarkFig11_ExactVsBounds(b *testing.B) {
	tree, out := fig7Tree(b)
	bounds, err := BoundsFor(tree, out)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := SimulateStep(tree, 32)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k <= 120; k++ {
			t := 600 * float64(k) / 120
			v, err := s.Voltage(out, t)
			if err != nil {
				b.Fatal(err)
			}
			if v < bounds.VMin(t)-1e-9 || v > bounds.VMax(t)+1e-9 {
				b.Fatal("bracket violated")
			}
		}
	}
}

// BenchmarkFig13_PLASweep regenerates the full Figure 13 sweep (2..100
// minterms at V=0.7).
func BenchmarkFig13_PLASweep(b *testing.B) {
	params := pla.PaperParams()
	ns := pla.DefaultMinterms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := pla.Sweep(params, ns, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		if pts[len(pts)-1].TMax > 10100 {
			b.Fatal("headline claim regressed")
		}
	}
}

// BenchmarkFig5_BoundCurves samples the qualitative bound-shape figure.
func BenchmarkFig5_BoundCurves(b *testing.B) {
	tree, out := fig7Tree(b)
	bounds, err := BoundsFor(tree, out)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := bounds.SampleCurves(1200, 200)
		if len(pts) != 201 {
			b.Fatal("bad curve")
		}
	}
}

// BenchmarkE8_DirectVsAlgebra compares the two §IV computation strategies
// and the quadratic-flavored reference across tree sizes — the paper's
// complexity claim as a benchmark.
func BenchmarkE8_DirectVsAlgebra(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		tree := randnet.Tree(rng, randnet.DefaultConfig(n))
		out := tree.Outputs()[len(tree.Outputs())-1]
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.CharacteristicTimes(out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("algebra/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				expr, err := algebra.FromTree(tree, out)
				if err != nil {
					b.Fatal(err)
				}
				expr.Eval()
			}
		})
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.CharacteristicTimesRef(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// batchWorkload builds the 1000-tree random workload the batch-engine
// throughput claim is stated against.
func batchWorkload(b *testing.B, trees int) []BatchJob {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	jobs := make([]BatchJob, trees)
	for i := range jobs {
		jobs[i] = BatchJob{
			Tree:       randnet.Tree(rng, randnet.DefaultConfig(100)),
			Thresholds: []float64{0.1, 0.5, 0.9},
		}
	}
	return jobs
}

// BenchmarkAnalyzeBatch compares single-shot sequential analysis against the
// worker-pool engine on a 1000-tree random workload. One iteration is one
// full pass over the workload, so ns/op ratios read directly as throughput
// ratios: at GOMAXPROCS >= 4 the parallel case is expected to run >= 2x the
// sequential rate, and the cached case (each network submitted four times)
// shows what memoization adds on repeat-heavy traffic at any core count.
func BenchmarkAnalyzeBatch(b *testing.B) {
	jobs := batchWorkload(b, 1000)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				results, err := Analyze(j.Tree)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if rows := r.Bounds.DelayTable(j.Thresholds); len(rows) == 0 {
						b.Fatal("empty table")
					}
				}
			}
		}
	})
	b.Run(fmt.Sprintf("parallel/workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh cache-free engine each pass: this measures pure
			// fan-out against the sequential baseline, not memoization.
			eng := NewBatchEngine(BatchOptions{CacheSize: -1})
			results := eng.Run(context.Background(), jobs)
			if results[len(results)-1].Err != nil {
				b.Fatal(results[len(results)-1].Err)
			}
		}
	})
	b.Run("cached/4x-duplicates", func(b *testing.B) {
		dup := make([]BatchJob, 0, 4*len(jobs))
		for rep := 0; rep < 4; rep++ {
			dup = append(dup, jobs...)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := NewBatchEngine(BatchOptions{})
			results := eng.Run(context.Background(), dup)
			if results[len(results)-1].Err != nil {
				b.Fatal(results[len(results)-1].Err)
			}
		}
	})
}

// BenchmarkE8_ElmoreAllOutputs measures the two-pass all-outputs baseline.
func BenchmarkE8_ElmoreAllOutputs(b *testing.B) {
	rng := rand.New(rand.NewSource(88))
	tree := randnet.Tree(rng, randnet.DefaultConfig(1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if td := elmore.Delays(tree); len(td) != tree.NumNodes() {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkE10_RampBounds measures the §VI superposition bounds at one time
// point with the default quadrature.
func BenchmarkE10_RampBounds(b *testing.B) {
	tree, out := fig7Tree(b)
	tm, err := CharacteristicTimes(tree, out)
	if err != nil {
		b.Fatal(err)
	}
	bounds, err := core.New(tm)
	if err != nil {
		b.Fatal(err)
	}
	ramp := waveform.Ramp(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi, err := waveform.ResponseBounds(bounds, ramp, 400, 128)
		if err != nil || lo > hi {
			b.Fatal("bad bounds")
		}
	}
}

// BenchmarkAblation_Discretization quantifies the cost/accuracy trade of
// line discretization depth: the eigen solve grows as segments³ while the
// 50% crossing moves by less than 1% beyond 4 segments (accuracy recorded in
// EXPERIMENTS.md).
func BenchmarkAblation_Discretization(b *testing.B) {
	tree, out := fig7Tree(b)
	for _, segs := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := SimulateStep(tree, segs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.CrossingTime(out, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Integrator compares the exact eigen path against the
// two transient schemes at equal accuracy targets (h chosen so both land
// within ~1e-3 of the exact 50% crossing).
func BenchmarkAblation_Integrator(b *testing.B) {
	tree, _ := fig7Tree(b)
	lumped, mapping, err := sim.Discretize(tree, 8)
	if err != nil {
		b.Fatal(err)
	}
	_ = mapping
	ckt, err := sim.NewCircuit(lumped)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("eigen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ckt.EigenResponse(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("backward-euler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ckt.Transient(sim.BackwardEuler, 0.5, 2400); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trapezoidal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ckt.Transient(sim.Trapezoidal, 2, 600); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSensitivities measures the O(n) exact-gradient pass on a
// 500-element tree (extension module).
func BenchmarkSensitivities(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tree := randnet.Tree(rng, randnet.DefaultConfig(500))
	out := tree.Outputs()[len(tree.Outputs())-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Sensitivities(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures 100 variation samples of the certified delay
// on the Figure 7 network (extension module).
func BenchmarkMonteCarlo(b *testing.B) {
	tree, out := fig7Tree(b)
	v := mc.Variation{RSigma: 0.1, CSigma: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Run(tree, out, mc.TMaxAt(0.7), v, 100, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptRepeaters measures the certified repeater-insertion search
// over 64 candidate stage counts.
func BenchmarkOptRepeaters(b *testing.B) {
	d := mos.Superbuffer()
	line := opt.Line{RPerLen: 7.5, CPerLen: 4.6e-4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.InsertRepeaters(d, line, 10000, 0.05, 0.013, 0.5, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClockTreeSkew measures certified worst-skew analysis of a
// 64-leaf H-tree (2016 leaf pairs).
func BenchmarkClockTreeSkew(b *testing.B) {
	tree, err := htree.Build(htree.Config{
		Levels: 6, TrunkR: 720, TrunkC: 0.044,
		DriverR: 380, DriverC: 0.04, LeafC: 0.013,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := Analyze(tree)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.WorstSkew(results, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundsEvaluation measures single bound evaluations — the paper's
// "computationally simple" claim in nanoseconds.
func BenchmarkBoundsEvaluation(b *testing.B) {
	tree, out := fig7Tree(b)
	bounds, err := BoundsFor(tree, out)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("TMax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if bounds.TMax(0.5) < 0 {
				b.Fatal("negative")
			}
		}
	})
	b.Run("VMin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if bounds.VMin(250) < 0 {
				b.Fatal("negative")
			}
		}
	})
	b.Run("OK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bounds.OK(0.5, 250)
		}
	})
}
