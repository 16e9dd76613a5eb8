package closure

import (
	"context"
	"testing"

	"repro/internal/mcd"
	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/timing"
)

// benchDesign draws the benchmark chip once: a 5x8 pipeline of 40-node nets
// with the default required time set so roughly the worst fifth of the
// endpoints fail — enough failing cones that every iteration generates a
// realistic candidate fan-out.
func benchDesign(b *testing.B) (*netlist.Design, float64) {
	b.Helper()
	cfg := randnet.DefaultDesignConfig(5, 8)
	cfg.Net = randnet.DefaultConfig(40)
	d := randnet.DesignSeed(7, cfg)
	probe, err := timing.Analyze(context.Background(), d,
		timing.Options{Threshold: 0.7, Required: 1e12, Sequential: true})
	if err != nil {
		b.Fatal(err)
	}
	maxArr := 0.0
	for _, ep := range probe.Endpoints {
		if ep.Arrival.Max > maxArr {
			maxArr = ep.Arrival.Max
		}
	}
	return d, 0.8 * maxArr
}

// BenchmarkClosure times the repair loop end to end — endpoint ranking,
// candidate generation, what-if trials, accept — on the benchmark chip
// (chip); the session mount is paid outside the timer. The workload
// sub-benchmark runs the closure workload's shape instead: 6×40 nets of 60
// nodes, required time 0.8 × the latest arrival, an 8-move budget; corners
// runs the same with mcd.DefaultCorners.
func BenchmarkClosure(b *testing.B) {
	d, required := benchDesign(b)
	// K < 0 skips critical-path backtracking; the repair loop never walks
	// paths.
	topt := timing.Options{Threshold: 0.7, Required: required, K: -1}
	run := func(b *testing.B, d *netlist.Design, topt timing.Options, o Options) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sess, err := timing.NewSession(ctx, d, topt)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rep, err := Close(ctx, sess, o)
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Moves) == 0 {
				b.Fatal("benchmark design accepted no moves")
			}
		}
	}
	b.Run("chip", func(b *testing.B) {
		run(b, d, topt, Options{MaxMoves: 6, TopEndpoints: 4})
	})
	// The closure workload's shape; corners adds the default slow/typ/fast
	// corners to it.
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	wd := randnet.DesignSeed(10, cfg)
	probe, err := timing.Analyze(context.Background(), wd, timing.Options{Threshold: 0.7, K: -1})
	if err != nil {
		b.Fatal(err)
	}
	latest := 0.0
	for _, ep := range probe.Endpoints {
		latest = max(latest, ep.Arrival.Max)
	}
	wopt := timing.Options{Threshold: 0.7, Required: 0.8 * latest}
	b.Run("workload", func(b *testing.B) {
		run(b, wd, wopt, Options{MaxMoves: 8})
	})
	b.Run("corners", func(b *testing.B) {
		run(b, wd, wopt, Options{MaxMoves: 8, Corners: mcd.DefaultCorners()})
	})
}
