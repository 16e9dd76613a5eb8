package mcd

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/randnet"
	"repro/internal/timing"
)

// BenchmarkCornerSweep compares the two ways to evaluate one corner's Monte
// Carlo samples: the arena path (one nominal tree sweep, then per sample a
// DAG pass over λ-scaled nominal delays) versus rebuilding an
// explicitly-scaled netlist and running a full analysis per sample — the
// internal/mc approach lifted naively to designs. Both paths are
// single-threaded so the ratio is per-sample work, not parallelism;
// scripts/bench_trajectory.sh records the ratio as
// corner_sweep_arena_vs_rebuild.
func BenchmarkCornerSweep(b *testing.B) {
	d := randnet.Design(rand.New(rand.NewSource(17)), randnet.DefaultDesignConfig(6, 4))
	const samples = 8
	const th, req = 0.5, 400.0
	v := Variation{RSigma: 0.05, CSigma: 0.05}
	corners := []Corner{{Name: "typ", RScale: 1, CScale: 1}}
	ctx := context.Background()

	b.Run("arena", func(b *testing.B) {
		g, err := timing.NewGraph(d)
		if err != nil {
			b.Fatal(err)
		}
		opt := Options{
			Samples: samples, Seed: 1, Variation: v, Corners: corners,
			Threshold: th, Required: req, Sequential: true,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeGraph(ctx, g, "bench", opt); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		rF, cF, _ := drawFactors(len(d.Nets), samples, v, 1)
		opt := timing.Options{Threshold: th, Required: req, K: -1, Sequential: true}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < samples; s++ {
				rf := make([]float64, len(d.Nets))
				cf := make([]float64, len(d.Nets))
				for j := range rf {
					rf[j], cf[j] = rF[s][j], cF[s][j]
				}
				sd, err := ScaleDesign(d, rf, cf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := timing.Analyze(ctx, sd, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCornersOp times the two calls of the corners workload's op on its
// design shape (randnet 6×40 nets of 30 nodes, 2,230 endpoints): analyze is
// AnalyzeGraph over 3 corners × 32 samples on GOMAXPROCS workers, summary is
// the text rendering of that report. BenchmarkCornerSweep's 6×4 design hides
// the per-endpoint statistics this shape spends most of its time in.
func BenchmarkCornersOp(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(30)
	d := randnet.DesignSeed(7, cfg)
	g, err := timing.NewGraph(d)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{
		Samples: 32, Seed: 7, Variation: Variation{RSigma: 0.05, CSigma: 0.05},
		Threshold: 0.7, Required: 1e5,
	}
	ctx := context.Background()
	rep, err := AnalyzeGraph(ctx, g, d.Name, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("analyze", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := AnalyzeGraph(ctx, g, d.Name, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("summary", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			rep.Summary()
		}
	})
}
