package main

import (
	"cmp"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	rcdelay "repro"
	"repro/internal/core"
	"repro/internal/elmore"
)

// netRow is the default mode's timing record for one output of one net.
type netRow struct {
	Net    string  `json:"net"`
	Output string  `json:"output"`
	TP     float64 `json:"tp"`
	TD     float64 `json:"td"`
	TR     float64 `json:"tr"`
	Ree    float64 `json:"ree"`
	// TMin and TMax bound the threshold-crossing time; Elmore is the TDe
	// baseline.
	TMin   float64 `json:"tmin"`
	TMax   float64 `json:"tmax"`
	Elmore float64 `json:"elmore"`
	// Slack is deadline − TMax: nonnegative means guaranteed to meet timing.
	// OptimisticSlack is deadline − TMin: negative means guaranteed to fail.
	Slack           float64 `json:"slack"`
	OptimisticSlack float64 `json:"optimistic_slack"`
	// Verdict is the Figure 9 certification against the deadline.
	Verdict string `json:"verdict"`
}

// netReport is the default mode's report, and its JSON wire shape: every
// output of every net, worst guaranteed slack first (ties by net, then
// output), with the verdict tallies.
type netReport struct {
	Outputs []netRow `json:"outputs"`
	Passes  int      `json:"passes"`
	Unknown int      `json:"unknown"`
	Fails   int      `json:"fails"`
}

// loadNets reads each netlist file as an independent net named after the
// file, and times every output against one threshold and deadline.
func loadNets(paths []string, threshold, deadline float64) (*netReport, error) {
	if !(threshold > 0 && threshold < 1) {
		return nil, fmt.Errorf("threshold %g outside (0,1)", threshold)
	}
	if deadline < 0 {
		return nil, fmt.Errorf("negative deadline %g", deadline)
	}
	r := &netReport{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		tree, err := rcdelay.ParseNetlist(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(tree.Outputs()) == 0 {
			return nil, fmt.Errorf("%s: no outputs", path)
		}
		results, err := core.AnalyzeTree(tree)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		tds := elmore.Delays(tree)
		for _, res := range results {
			tmin, tmax := res.Bounds.TMin(threshold), res.Bounds.TMax(threshold)
			verdict := res.Bounds.OK(threshold, deadline)
			switch verdict {
			case core.Passes:
				r.Passes++
			case core.Fails:
				r.Fails++
			default:
				r.Unknown++
			}
			r.Outputs = append(r.Outputs, netRow{
				Net: name, Output: res.Name,
				TP: res.Times.TP, TD: res.Times.TD, TR: res.Times.TR, Ree: res.Times.Ree,
				TMin: tmin, TMax: tmax, Elmore: tds[res.Output],
				Slack: deadline - tmax, OptimisticSlack: deadline - tmin,
				Verdict: verdict.String(),
			})
		}
	}
	slices.SortStableFunc(r.Outputs, func(a, b netRow) int {
		return cmp.Or(cmp.Compare(a.Slack, b.Slack), strings.Compare(a.Net, b.Net), strings.Compare(a.Output, b.Output))
	})
	return r, nil
}

// Summary renders a fixed-width table, worst slack first.
func (r *netReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %12s %12s %12s %12s %10s\n",
		"net", "output", "Tmin", "Tmax", "elmore", "slack", "verdict")
	for _, o := range r.Outputs {
		fmt.Fprintf(&b, "%-12s %-12s %12.4g %12.4g %12.4g %12.4g %10s\n",
			o.Net, o.Output, o.TMin, o.TMax, o.Elmore, o.Slack, o.Verdict)
	}
	fmt.Fprintf(&b, "outputs: %d pass, %d unknown, %d fail\n", r.Passes, r.Unknown, r.Fails)
	return b.String()
}

// WriteCSV emits a header plus one row per output, worst slack first.
func (r *netReport) WriteCSV(w io.Writer) error {
	// The csv writer buffers: a failed write sticks in it, so the rows' Write
	// results are left unchecked and Error reports the failure after Flush.
	cw := csv.NewWriter(w)
	cw.Write([]string{"net", "output", "tp", "td", "tr", "ree", "tmin", "tmax", "elmore", "slack", "optimistic_slack", "verdict"})
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, o := range r.Outputs {
		cw.Write([]string{
			o.Net, o.Output, g(o.TP), g(o.TD), g(o.TR), g(o.Ree),
			g(o.TMin), g(o.TMax), g(o.Elmore), g(o.Slack), g(o.OptimisticSlack),
			o.Verdict,
		})
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the report as indented JSON.
func (r *netReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
