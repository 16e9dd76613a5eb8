// Certify: the static-timing workflow the paper enables — certify a small
// design (several nets, several outputs each) against a clock budget using
// only the bounds, then resolve the undecided outputs with one exact
// simulation each. No output is ever mis-certified: an exact crossing
// outside the arrival interval the bounds certified is refused.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	rcdelay "repro"
	"repro/internal/mos"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A toy design: three independent nets of increasing interconnect load,
	// no stages between them, every output due at 500 ps.
	d := &rcdelay.Design{Name: "certify"}
	trees := map[string]*rcdelay.Tree{}
	for _, n := range []struct {
		name  string
		scale float64
	}{{"short_net", 1}, {"medium_net", 3}, {"long_net", 8}} {
		tree, err := fanoutNet(n.scale)
		if err != nil {
			return err
		}
		d.Nets = append(d.Nets, rcdelay.DesignNet{Name: n.name, Tree: tree})
		trees[n.name] = tree
	}
	const threshold = 0.7
	report, err := rcdelay.AnalyzeDesign(context.Background(), d, rcdelay.DesignOptions{
		Threshold: threshold, Required: 500, K: -1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Phase 1 — bound-based certification (no simulation):")
	fmt.Fprint(w, report.Summary())

	// Phase 2: exact simulation only for the Unknown endpoints.
	passes, unknown, fails := report.CountByVerdict()
	fmt.Fprintf(w, "\nPhase 2 — simulating %d undecided outputs (skipping %d already decided):\n",
		unknown, passes+fails)
	for i := range report.Endpoints {
		e := &report.Endpoints[i]
		if e.Verdict != rcdelay.Unknown {
			continue
		}
		tree := trees[e.Net]
		sim, err := rcdelay.SimulateStep(tree, 16)
		if err != nil {
			return err
		}
		// Every endpoint is a designated output of its net.
		id, _ := tree.LookupOutput(e.Output)
		cross, err := sim.CrossingTime(id, threshold)
		if err != nil {
			return err
		}
		if e.Verdict, err = settle(*e, cross); err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s/%s: exact crossing %.1f ps vs required %.0f ps: %s\n",
			e.Net, e.Output, cross, e.Required, e.Verdict)
	}
	passes, unknown, fails = report.CountByVerdict()
	fmt.Fprintf(w, "\nFinal verdicts: %d pass, %d unknown, %d fail\n", passes, unknown, fails)
	return nil
}

// settle decides an Unknown endpoint from its exact crossing time. The
// crossing must lie inside the arrival interval the bounds certified (to
// 1e-9 relative); one outside it means the simulation or the bounds are
// wrong, and is refused rather than trusted.
func settle(e rcdelay.EndpointSlack, cross float64) (rcdelay.Verdict, error) {
	a := e.Arrival
	if !(cross >= a.Min-1e-9*(1+a.Min) && cross <= a.Max+1e-9*(1+a.Max)) {
		return e.Verdict, fmt.Errorf("%s/%s: exact crossing %g outside the certified arrival [%g, %g]",
			e.Net, e.Output, cross, a.Min, a.Max)
	}
	if cross <= e.Required {
		return rcdelay.Passes, nil
	}
	return rcdelay.Fails, nil
}

// fanoutNet builds a superbuffer-driven fanout net whose branch lengths
// scale with the given factor (ohms / pF, times in ps).
func fanoutNet(scale float64) (*rcdelay.Tree, error) {
	return mos.FanoutNet(mos.Superbuffer(),
		[]float64{90 * scale, 180 * scale, 270 * scale},
		[]float64{0.005 * scale, 0.01 * scale, 0.015 * scale},
		[]mos.Load{{Name: "g1", C: 0.013}, {Name: "g2", C: 0.013}, {Name: "g3", C: 0.013}})
}
