// Certify: the static-timing workflow the paper enables — certify a small
// design (several nets, several outputs each) against a clock budget using
// only the bounds, then resolve the undecided outputs with one exact
// simulation each. No output is ever mis-certified.
package main

import (
	"fmt"
	"log"
	"math"

	rcdelay "repro"
	"repro/internal/core"
	"repro/internal/mos"
	"repro/internal/sta"
)

func main() {
	// A toy design: three nets of increasing interconnect load.
	nets := []sta.Net{
		makeNet("short_net", 1, 500),
		makeNet("medium_net", 3, 500),
		makeNet("long_net", 8, 500),
	}
	report, err := sta.Analyze(nets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Phase 1 — bound-based certification (no simulation):")
	fmt.Print(report.Summary())

	// Phase 2: exact simulation only for the Unknown outputs.
	passes, unknown, fails := report.CountByVerdict()
	fmt.Printf("\nPhase 2 — simulating %d undecided outputs (skipping %d already decided):\n",
		unknown, passes+fails)
	deadlines := map[string]float64{}
	for _, n := range nets {
		deadlines[n.Name] = n.Deadline
	}
	exact := make([]float64, len(report.Outputs))
	for i := range exact {
		exact[i] = math.NaN()
	}
	sims := map[string]*rcdelay.StepSim{}
	for _, n := range nets {
		s, err := rcdelay.SimulateStep(n.Tree, 16)
		if err != nil {
			log.Fatal(err)
		}
		sims[n.Name] = s
	}
	for i, o := range report.Outputs {
		if o.Verdict != core.Unknown {
			continue
		}
		var net sta.Net
		for _, n := range nets {
			if n.Name == o.Net {
				net = n
			}
		}
		id, ok := net.Tree.LookupOutput(o.Output)
		if !ok {
			log.Fatalf("%s/%s is not a designated output", o.Net, o.Output)
		}
		cross, err := sims[o.Net].CrossingTime(id, net.Threshold)
		if err != nil {
			log.Fatal(err)
		}
		exact[i] = cross
		fmt.Printf("  %s/%s: exact crossing %.1f ps vs deadline %.0f ps\n",
			o.Net, o.Output, cross, net.Deadline)
	}
	if err := report.TightenWith(deadlines, exact); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFinal verdicts:")
	fmt.Print(report.Summary())
	fmt.Printf("design verdict: %s\n", report.WorstVerdict())
}

// makeNet builds a superbuffer-driven fanout net whose branch lengths scale
// with the given factor (ohms / pF, times in ps).
func makeNet(name string, scale float64, deadline float64) sta.Net {
	tree, err := mos.FanoutNet(mos.Superbuffer(),
		[]float64{90 * scale, 180 * scale, 270 * scale},
		[]float64{0.005 * scale, 0.01 * scale, 0.015 * scale},
		[]mos.Load{{Name: "g1", C: 0.013}, {Name: "g2", C: 0.013}, {Name: "g3", C: 0.013}})
	if err != nil {
		log.Fatal(err)
	}
	return sta.Net{Name: name, Tree: tree, Threshold: 0.7, Deadline: deadline}
}
