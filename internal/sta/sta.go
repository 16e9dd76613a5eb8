package sta

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/elmore"
	"repro/internal/rctree"
)

// Net is one driver-to-loads RC tree with its timing contract.
type Net struct {
	// Name identifies the net in reports.
	Name string
	// Tree is the RC network; its designated outputs are timed.
	Tree *rctree.Tree
	// Threshold is the receiving gates' switching threshold as a fraction
	// of the step amplitude (the paper's example uses 0.7).
	Threshold float64
	// Deadline is the required arrival time in the tree's time units.
	Deadline float64
}

// Validate rejects unusable nets.
func (n Net) Validate() error {
	if n.Tree == nil {
		return fmt.Errorf("sta: net %q has no tree", n.Name)
	}
	if !(n.Threshold > 0 && n.Threshold < 1) {
		return fmt.Errorf("sta: net %q threshold %g outside (0,1)", n.Name, n.Threshold)
	}
	if n.Deadline < 0 {
		return fmt.Errorf("sta: net %q has negative deadline %g", n.Name, n.Deadline)
	}
	if len(n.Tree.Outputs()) == 0 {
		return fmt.Errorf("sta: net %q has no outputs", n.Name)
	}
	return nil
}

// OutputReport is the timing record for one output of one net.
type OutputReport struct {
	Net    string
	Output string
	Times  rctree.Times
	// TMin and TMax bound the threshold-crossing time.
	TMin, TMax float64
	// Elmore is the baseline TDe for comparison.
	Elmore float64
	// Slack is Deadline − TMax: nonnegative means guaranteed to meet
	// timing. OptimisticSlack is Deadline − TMin: negative means guaranteed
	// to fail.
	Slack, OptimisticSlack float64
	// Verdict is the Figure 9 certification against the deadline.
	Verdict core.Verdict
}

// DesignReport aggregates every output of every net.
type DesignReport struct {
	Outputs []OutputReport
}

// Analyze times every output of every net.
func Analyze(nets []Net) (*DesignReport, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("sta: no nets to analyze")
	}
	report := &DesignReport{}
	for _, net := range nets {
		if err := net.Validate(); err != nil {
			return nil, err
		}
		results, err := core.AnalyzeTree(net.Tree)
		if err != nil {
			return nil, fmt.Errorf("sta: net %q: %w", net.Name, err)
		}
		tds := elmore.Delays(net.Tree)
		for _, res := range results {
			tmin := res.Bounds.TMin(net.Threshold)
			tmax := res.Bounds.TMax(net.Threshold)
			report.Outputs = append(report.Outputs, OutputReport{
				Net:             net.Name,
				Output:          res.Name,
				Times:           res.Times,
				TMin:            tmin,
				TMax:            tmax,
				Elmore:          tds[res.Output],
				Slack:           net.Deadline - tmax,
				OptimisticSlack: net.Deadline - tmin,
				Verdict:         res.Bounds.OK(net.Threshold, net.Deadline),
			})
		}
	}
	return report, nil
}

// Critical returns the outputs sorted by ascending guaranteed slack (worst
// first), ties broken by net then output name.
func (r *DesignReport) Critical() []OutputReport {
	out := append([]OutputReport(nil), r.Outputs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slack != out[j].Slack {
			return out[i].Slack < out[j].Slack
		}
		if out[i].Net != out[j].Net {
			return out[i].Net < out[j].Net
		}
		return out[i].Output < out[j].Output
	})
	return out
}

// WorstVerdict reduces the design to a single certification: Fails if any
// output fails, else Unknown if any is undecided, else Passes.
func (r *DesignReport) WorstVerdict() core.Verdict {
	worst := core.Passes
	for _, o := range r.Outputs {
		if o.Verdict < worst {
			worst = o.Verdict
		}
	}
	return worst
}

// CountByVerdict tallies outputs per verdict.
func (r *DesignReport) CountByVerdict() (passes, unknown, fails int) {
	for _, o := range r.Outputs {
		switch o.Verdict {
		case core.Passes:
			passes++
		case core.Fails:
			fails++
		default:
			unknown++
		}
	}
	return
}

// Summary renders a fixed-width report table, worst slack first.
func (r *DesignReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %12s %12s %12s %12s %10s\n",
		"net", "output", "Tmin", "Tmax", "elmore", "slack", "verdict")
	for _, o := range r.Critical() {
		fmt.Fprintf(&b, "%-12s %-12s %12.4g %12.4g %12.4g %12.4g %10s\n",
			o.Net, o.Output, o.TMin, o.TMax, o.Elmore, o.Slack, o.Verdict)
	}
	p, u, f := r.CountByVerdict()
	fmt.Fprintf(&b, "outputs: %d pass, %d unknown, %d fail\n", p, u, f)
	return b.String()
}

// TightenWith upgrades Unknown verdicts using exact crossing times obtained
// elsewhere (e.g. the sim package): exact[i] is the measured crossing of
// r.Outputs[i], or NaN to leave it alone. This mirrors the intended
// workflow: certify cheaply with bounds, simulate only the undecided nets.
func (r *DesignReport) TightenWith(deadlines map[string]float64, exact []float64) error {
	if len(exact) != len(r.Outputs) {
		return fmt.Errorf("sta: TightenWith needs %d crossings, got %d", len(r.Outputs), len(exact))
	}
	for i := range r.Outputs {
		o := &r.Outputs[i]
		if o.Verdict != core.Unknown || math.IsNaN(exact[i]) {
			continue
		}
		deadline, ok := deadlines[o.Net]
		if !ok {
			continue
		}
		// The exact crossing must respect the bounds it refines.
		if exact[i] < o.TMin-1e-9*(1+o.TMin) || exact[i] > o.TMax+1e-9*(1+o.TMax) {
			return fmt.Errorf("sta: exact crossing %g for %s/%s outside bounds [%g, %g]",
				exact[i], o.Net, o.Output, o.TMin, o.TMax)
		}
		if exact[i] <= deadline {
			o.Verdict = core.Passes
		} else {
			o.Verdict = core.Fails
		}
	}
	return nil
}
