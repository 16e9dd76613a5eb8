// Command statime runs bound-based static timing analysis over netlist
// files and emits the report as text, CSV or JSON — the downstream tool a
// design flow would actually call.
//
// Usage:
//
//	statime -threshold 0.7 -deadline 500 net1.ckt net2.ckt
//	statime -threshold 0.5 -deadline 2n -format json bus.ckt
//	statime -design -threshold 0.7 -deadline 700 -k 3 chip.ckt
//	statime -eco fix.eco -threshold 0.7 chip.ckt
//	statime -close -budget 16 -threshold 0.7 chip.ckt
//	statime -close -progress -threshold 0.7 chip.ckt
//	statime -corners -samples 128 -rsigma 0.05 -csigma 0.05 -threshold 0.7 chip.ckt
//
// The default mode times each file as an independent net against the
// deadline. With -design, the single input file is a multi-net design deck
// (.net/.endnet sections glued by .stage cards): the chip-level engine
// levelizes the stage DAG, propagates interval arrival times, and reports
// per-endpoint slack plus the -k most critical paths; -deadline then serves
// as the default required time for endpoints without a .require card (and
// may be omitted).
//
// With -eco FILE (which implies -design), the design is analyzed once, the
// ECO edit list in FILE is replayed through an incremental re-timing
// session — only the edited nets and their downstream fanout cones are
// re-timed — and the report becomes a slack-delta table: every endpoint
// before vs after the edits, plus the dirty-cone statistics. Edit lines look
// like "setR drv.o 800", "addC bus.far 2p", "scaleDriver drv 0.5"; see the
// timing package documentation for the full grammar.
//
// With -close (which also implies -design), the automated timing-closure
// engine repairs the design instead of just reporting on it: failing
// endpoints are mined for candidate moves (driver sizing, wire rebuffering,
// load trimming, stub pruning), candidates are evaluated as what-if
// trials, and the best slack-gain-per-cost move is accepted until
// WNS >= 0, the -budget move count, or the -maxcost ceiling is hit. The
// report carries the accepted ECO edit list (replayable via -eco), the
// closure trajectory, and the Pareto frontier of (cost, WNS) states
// visited. Adding -progress prints one line per accepted move to stderr as
// the engine lands it, so a long repair is watchable while stdout stays a
// clean report.
//
// With -corners (which also implies -design), the multi-corner variation
// engine sweeps the design across the slow/typ/fast process corners with
// per-net Gaussian derating (-rsigma/-csigma relative spreads, -samples Monte
// Carlo draws per corner, -seed for reproducibility). The trees are swept
// once; each corner and sample is a DAG arrival pass over the nominal net
// delays scaled by each net's R·C factor — no per-sample tree sweep or
// netlist rebuild — and the report carries, per corner, nominal and sampled WNS/TNS,
// per-endpoint slack distributions, and criticality probability.
//
// The deadline accepts SPICE suffixes (2n = 2e-9) and is interpreted in the
// same units as the netlists' element products.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	rcdelay "repro"
	"repro/internal/netlist"
	"repro/internal/sta"
)

func main() {
	var (
		threshold = flag.Float64("threshold", 0.7, "switching threshold as a fraction of the step")
		deadline  = flag.String("deadline", "", "required arrival time (SPICE suffixes allowed)")
		format    = flag.String("format", "text", "output format: text, csv or json")
		design    = flag.Bool("design", false, "treat the input as one multi-net design deck")
		eco       = flag.String("eco", "", "replay this ECO edit list against the design and report slack deltas (implies -design)")
		doClose   = flag.Bool("close", false, "run automated timing closure on the design and report the repair (implies -design)")
		budget    = flag.Int("budget", 0, "closure move budget with -close (0 = the engine default)")
		maxCost   = flag.Float64("maxcost", 0, "closure cost ceiling with -close (0 = unlimited)")
		k         = flag.Int("k", 3, "critical paths to report in -design mode")
		progress  = flag.Bool("progress", false, "with -close, print each accepted move to stderr as it lands")
		corners   = flag.Bool("corners", false, "run the multi-corner variation sweep on the design (implies -design)")
		samples   = flag.Int("samples", 0, "Monte Carlo samples per corner with -corners (0 = the engine default)")
		seed      = flag.Int64("seed", 1, "random seed for the -corners factor draws")
		rsigma    = flag.Float64("rsigma", 0.05, "per-net relative 1-sigma resistance spread with -corners")
		csigma    = flag.Float64("csigma", 0.05, "per-net relative 1-sigma capacitance spread with -corners")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of this run to FILE (chrome://tracing / Perfetto)")
	)
	flag.Parse()

	// With -trace, the whole run becomes one recorded trace: a root span over
	// the selected mode, with the engine layers' phase spans (levelize,
	// propagate, eco apply, closure trials, corner sweeps) attached through
	// the context. Without it ctx carries no span and tracing costs nothing.
	ctx := context.Background()
	var tracer *rcdelay.Tracer
	var root *rcdelay.TraceSpan
	if *traceOut != "" {
		tracer = rcdelay.NewTracer(rcdelay.TracerOptions{SlowThreshold: -1})
		ctx, root = tracer.Start(ctx, "statime")
	}

	var err error
	switch {
	case *eco != "" && *doClose:
		err = fmt.Errorf("-eco and -close are mutually exclusive: replay an existing edit list or synthesize a new one, not both")
	case *corners && (*eco != "" || *doClose):
		err = fmt.Errorf("-corners is a reporting mode and cannot be combined with -eco or -close")
	case *corners:
		root.SetAttr("mode", "corners")
		err = runCorners(ctx, os.Stdout, flag.Args(), *threshold, *deadline, *format, *samples, *seed, *rsigma, *csigma)
	case *eco != "":
		root.SetAttr("mode", "eco")
		err = runEco(ctx, os.Stdout, flag.Args(), *threshold, *deadline, *format, *k, *eco)
	case *doClose:
		root.SetAttr("mode", "close")
		var progressW io.Writer
		if *progress {
			progressW = os.Stderr
		}
		err = runClose(ctx, os.Stdout, progressW, flag.Args(), *threshold, *deadline, *format, *k, *budget, *maxCost)
	case *design:
		root.SetAttr("mode", "design")
		err = runDesign(ctx, os.Stdout, flag.Args(), *threshold, *deadline, *format, *k)
	default:
		root.SetAttr("mode", "nets")
		err = run(os.Stdout, flag.Args(), *threshold, *deadline, *format)
	}
	if tracer != nil {
		root.SetError(err)
		root.End()
		if werr := writeTraceFile(*traceOut, tracer); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "statime:", err)
		os.Exit(1)
	}
}

// writeTraceFile dumps the tracer's recorded traces (one: this run) as
// Chrome trace-event JSON.
func writeTraceFile(path string, tracer *rcdelay.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if err := rcdelay.WriteChromeTrace(f, tracer.Recent()); err != nil {
		f.Close()
		return fmt.Errorf("-trace: %w", err)
	}
	return f.Close()
}

func run(w io.Writer, paths []string, threshold float64, deadlineStr, format string) error {
	if len(paths) == 0 {
		return fmt.Errorf("no netlist files given")
	}
	if deadlineStr == "" {
		return fmt.Errorf("-deadline is required")
	}
	deadline, err := netlist.ParseValue(deadlineStr)
	if err != nil {
		return fmt.Errorf("bad -deadline: %w", err)
	}
	nets, err := loadNets(paths, threshold, deadline)
	if err != nil {
		return err
	}
	report, err := sta.Analyze(nets)
	if err != nil {
		return err
	}
	switch strings.ToLower(format) {
	case "text":
		_, err = fmt.Fprint(w, report.Summary())
		return err
	case "csv":
		return report.WriteCSV(w)
	case "json":
		return report.WriteJSON(w)
	}
	return fmt.Errorf("unknown -format %q (want text, csv or json)", format)
}

// loadDesign is the shared prologue of the -design and -eco modes: exactly
// one deck file, the optional -deadline as the default required time, and a
// filename-derived design name when the deck names none.
func loadDesign(mode string, paths []string, deadlineStr string) (*rcdelay.Design, float64, error) {
	if len(paths) != 1 {
		return nil, 0, fmt.Errorf("%s mode takes exactly one design deck, got %d files", mode, len(paths))
	}
	var required float64
	if deadlineStr != "" {
		var err error
		required, err = netlist.ParseValue(deadlineStr)
		if err != nil {
			return nil, 0, fmt.Errorf("bad -deadline: %w", err)
		}
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		return nil, 0, err
	}
	design, err := rcdelay.ParseDesign(string(data))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", paths[0], err)
	}
	if design.Name == "" {
		design.Name = strings.TrimSuffix(filepath.Base(paths[0]), filepath.Ext(paths[0]))
	}
	return design, required, nil
}

// reporter is the text/csv/json surface the chip and ECO reports share.
type reporter interface {
	Summary() string
	WriteCSV(io.Writer) error
	WriteJSON(io.Writer) error
}

func writeReport(w io.Writer, format string, r reporter) error {
	switch strings.ToLower(format) {
	case "text":
		_, err := fmt.Fprint(w, r.Summary())
		return err
	case "csv":
		return r.WriteCSV(w)
	case "json":
		return r.WriteJSON(w)
	}
	return fmt.Errorf("unknown -format %q (want text, csv or json)", format)
}

// runDesign is the -design mode: one multi-net deck through the chip-level
// timing engine.
func runDesign(ctx context.Context, w io.Writer, paths []string, threshold float64, deadlineStr, format string, k int) error {
	design, required, err := loadDesign("-design", paths, deadlineStr)
	if err != nil {
		return err
	}
	report, err := rcdelay.AnalyzeDesign(ctx, design, rcdelay.DesignOptions{
		Threshold: threshold,
		Required:  required,
		K:         k,
	})
	if err != nil {
		return err
	}
	return writeReport(w, format, report)
}

// runCorners is the -corners mode: sweep the design across the default
// slow/typ/fast process corners with per-net Gaussian derating and report
// the per-endpoint slack distributions and criticality.
func runCorners(ctx context.Context, w io.Writer, paths []string, threshold float64, deadlineStr, format string, samples int, seed int64, rsigma, csigma float64) error {
	design, required, err := loadDesign("-corners", paths, deadlineStr)
	if err != nil {
		return err
	}
	report, err := rcdelay.AnalyzeCorners(ctx, design, rcdelay.CornerOptions{
		Samples:   samples,
		Seed:      seed,
		Variation: rcdelay.CornerVariation{RSigma: rsigma, CSigma: csigma},
		Threshold: threshold,
		Required:  required,
	})
	if err != nil {
		return err
	}
	return writeReport(w, format, report)
}

// runEco is the -eco mode: analyze the design once, replay the edit list
// through an incremental re-timing session, and report the slack deltas.
func runEco(ctx context.Context, w io.Writer, paths []string, threshold float64, deadlineStr, format string, k int, ecoPath string) error {
	editData, err := os.ReadFile(ecoPath)
	if err != nil {
		return err
	}
	edits, err := rcdelay.ParseEcoEdits(string(editData))
	if err != nil {
		return fmt.Errorf("%s: %w", ecoPath, err)
	}
	if len(edits) == 0 {
		return fmt.Errorf("%s: edit list is empty", ecoPath)
	}
	design, required, err := loadDesign("-eco", paths, deadlineStr)
	if err != nil {
		return err
	}
	sess, err := rcdelay.NewDesignSession(ctx, design, rcdelay.DesignOptions{
		Threshold: threshold,
		Required:  required,
		K:         k,
	})
	if err != nil {
		return err
	}
	before := sess.Report()
	res, err := sess.ApplyCtx(ctx, edits)
	if err != nil {
		return fmt.Errorf("%s: %w", ecoPath, err)
	}
	return writeReport(w, format, rcdelay.NewEcoReport(before, sess.Report(), res))
}

// runClose is the -close mode: repair the design's negative slack with the
// automated closure engine and report the accepted edits plus the
// trajectory. A non-nil progressW (stderr under -progress) receives one
// line per accepted move as it lands — the CLI twin of rcserve's SSE
// stream, sharing the same ProgressEvent hook.
func runClose(ctx context.Context, w, progressW io.Writer, paths []string, threshold float64, deadlineStr, format string, k, budget int, maxCost float64) error {
	design, required, err := loadDesign("-close", paths, deadlineStr)
	if err != nil {
		return err
	}
	opt := rcdelay.ClosureOptions{
		Timing: rcdelay.DesignOptions{
			Threshold: threshold,
			Required:  required,
			K:         k,
		},
		MaxMoves: budget,
		MaxCost:  maxCost,
	}
	if progressW != nil {
		opt.Progress = func(ev rcdelay.ClosureProgress) {
			fmt.Fprintf(progressW, "move %d: %s %s (%s) cost %.4g wns %.4g tns %.4g cum %.4g\n",
				ev.Seq, ev.Move.Kind, ev.Move.Net, ev.Move.Desc,
				ev.Move.Cost, ev.WNS, ev.TNS, ev.CumCost)
		}
	}
	report, err := rcdelay.CloseTiming(ctx, design, opt)
	if err != nil {
		return err
	}
	return writeReport(w, format, report)
}

func loadNets(paths []string, threshold, deadline float64) ([]sta.Net, error) {
	nets := make([]sta.Net, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		tree, err := rcdelay.ParseNetlist(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		nets = append(nets, sta.Net{Name: name, Tree: tree, Threshold: threshold, Deadline: deadline})
	}
	return nets, nil
}
