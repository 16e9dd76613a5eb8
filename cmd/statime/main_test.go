package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	rcdelay "repro"
)

func writeNet(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	deck := `
.input in
R1 in n1 380
C1 n1 0 0.04
U1 n1 far 1800 0.11
C2 far 0 0.013
.output far
`
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadNets(t *testing.T) {
	dir := t.TempDir()
	p1 := writeNet(t, dir, "bus_a.ckt")
	p2 := writeNet(t, dir, "bus_b.ckt")
	nets, err := loadNets([]string{p1, p2}, 0.7, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 2 {
		t.Fatalf("nets = %d", len(nets))
	}
	if nets[0].Name != "bus_a" || nets[1].Name != "bus_b" {
		t.Errorf("names = %q, %q", nets[0].Name, nets[1].Name)
	}
	if _, err := loadNets([]string{filepath.Join(dir, "missing.ckt")}, 0.7, 500); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.ckt")
	os.WriteFile(bad, []byte("garbage"), 0o644)
	if _, err := loadNets([]string{bad}, 0.7, 500); err == nil {
		t.Error("bad deck accepted")
	}
}

func TestRunFormats(t *testing.T) {
	dir := t.TempDir()
	p := writeNet(t, dir, "net.ckt")
	for _, format := range []string{"text", "csv", "json"} {
		out := filepath.Join(dir, "out."+format)
		f, err := os.Create(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(f, []string{p}, 0.7, "5000", format); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		f.Close()
		data, _ := os.ReadFile(out)
		if !strings.Contains(string(data), "net") {
			t.Errorf("format %s output missing net name:\n%s", format, data)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	p := writeNet(t, dir, "net.ckt")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := run(devnull, nil, 0.7, "500", "text"); err == nil {
		t.Error("no files accepted")
	}
	if err := run(devnull, []string{p}, 0.7, "", "text"); err == nil {
		t.Error("missing deadline accepted")
	}
	if err := run(devnull, []string{p}, 0.7, "zzz", "text"); err == nil {
		t.Error("bad deadline accepted")
	}
	if err := run(devnull, []string{p}, 0.7, "500", "xml"); err == nil {
		t.Error("bad format accepted")
	}
	if err := run(devnull, []string{p}, 0, "500", "text"); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestDeadlineSuffix(t *testing.T) {
	dir := t.TempDir()
	p := writeNet(t, dir, "net.ckt")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// 5k ps deadline via suffix.
	if err := run(devnull, []string{p}, 0.7, "5k", "csv"); err != nil {
		t.Errorf("suffix deadline rejected: %v", err)
	}
}

func TestRunEcoErrors(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	chip := filepath.Join("testdata", "chip.ckt")
	eco := filepath.Join("testdata", "chip.eco")
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := runEco(context.Background(), devnull, nil, 0.7, "", "text", 2, eco); err == nil {
		t.Error("no design accepted")
	}
	if err := runEco(context.Background(), devnull, []string{chip}, 0.7, "", "text", 2, filepath.Join(dir, "missing.eco")); err == nil {
		t.Error("missing eco file accepted")
	}
	if err := runEco(context.Background(), devnull, []string{chip}, 0.7, "", "text", 2, write("bad.eco", "warp a.b 1\n")); err == nil {
		t.Error("bad eco op accepted")
	}
	if err := runEco(context.Background(), devnull, []string{chip}, 0.7, "", "text", 2, write("empty.eco", "* nothing\n")); err == nil {
		t.Error("empty eco list accepted")
	}
	if err := runEco(context.Background(), devnull, []string{chip}, 0.7, "zzz", "text", 2, eco); err == nil {
		t.Error("bad deadline accepted")
	}
	if err := runEco(context.Background(), devnull, []string{chip}, 0.7, "", "xml", 2, eco); err == nil {
		t.Error("bad format accepted")
	}
	if err := runEco(context.Background(), devnull, []string{write("bad.ckt", "garbage")}, 0.7, "", "text", 2, eco); err == nil {
		t.Error("bad design accepted")
	}
	// An edit list that fails mid-replay surfaces the edit error.
	if err := runEco(context.Background(), devnull, []string{chip}, 0.7, "", "text", 2, write("fail.eco", "setR ghost.o 5\n")); err == nil {
		t.Error("failing edit accepted")
	}
	// A deadline applies as the default requirement in eco mode too.
	if err := runEco(context.Background(), devnull, []string{chip}, 0.7, "5k", "csv", 2, eco); err != nil {
		t.Errorf("eco with deadline: %v", err)
	}
}

// TestRunCloseProgress: -progress writes one line per accepted move to the
// progress sink while stdout still carries the full report, and the line
// count agrees with the report's trajectory.
func TestRunCloseProgress(t *testing.T) {
	var out, progress bytes.Buffer
	fail := filepath.Join("testdata", "fail.ckt")
	if err := runClose(context.Background(), &out, &progress, []string{fail}, 0.7, "", "json", 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	var report struct {
		Closed     bool `json:"closed"`
		Trajectory []struct {
			Kind string `json:"kind"`
		} `json:"trajectory"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, out.String())
	}
	if !report.Closed || len(report.Trajectory) == 0 {
		t.Fatalf("closure did not repair the fixture: %s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) != len(report.Trajectory) {
		t.Fatalf("progress carried %d lines for %d moves:\n%s",
			len(lines), len(report.Trajectory), progress.String())
	}
	for i, line := range lines {
		prefix := fmt.Sprintf("move %d: %s", i+1, report.Trajectory[i].Kind)
		if !strings.HasPrefix(line, prefix) {
			t.Errorf("progress line %d = %q, want prefix %q", i, line, prefix)
		}
		if !strings.Contains(line, "wns") || !strings.Contains(line, "cum") {
			t.Errorf("progress line %d missing state fields: %q", i, line)
		}
	}
	// Without a sink the same run stays silent on the progress side.
	out.Reset()
	if err := runClose(context.Background(), &out, nil, []string{fail}, 0.7, "", "text", 2, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestTraceOutput drives -trace's plumbing: a traced -close run writes a
// Chrome trace-event file whose events include the engine phase spans.
func TestTraceOutput(t *testing.T) {
	tracer := rcdelay.NewTracer(rcdelay.TracerOptions{SlowThreshold: -1})
	ctx, root := tracer.Start(context.Background(), "statime")
	root.SetAttr("mode", "close")
	var out bytes.Buffer
	if err := runClose(ctx, &out, nil, []string{filepath.Join("testdata", "fail.ckt")}, 0.7, "", "json", 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	root.End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTraceFile(path, tracer); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file did not decode: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want X", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"statime", "closure_run", "closure_trial", "timing_propagate"} {
		if !names[want] {
			t.Errorf("trace missing %s span (got %v)", want, names)
		}
	}
}

// TestCornersRejectNonFiniteSigma runs statime (this test binary re-entering
// main through TestMainProcess) with non-finite -rsigma/-csigma values: each
// must exit with status 1 and an error naming the field, not print a report
// that silently drops or poisons the variation.
func TestCornersRejectNonFiniteSigma(t *testing.T) {
	for _, tc := range []struct{ flag, value, field string }{
		{"-rsigma", "NaN", "rSigma"},
		{"-rsigma", "Inf", "rSigma"},
		{"-csigma", "-Inf", "cSigma"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMainProcess$", "--",
			"-corners", tc.flag, tc.value, "-threshold", "0.7", filepath.Join("testdata", "fail.ckt"))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s %s: exit %v, want status 1\n%s", tc.flag, tc.value, err, out)
		}
		if want := tc.field + " must be finite"; !strings.Contains(string(out), want) {
			t.Errorf("%s %s: output lacks %q:\n%s", tc.flag, tc.value, want, out)
		}
	}
}

// TestCloseRejectsNaNMaxCost: -close -maxcost NaN exits 1 with an error
// naming the field, where it used to run with no ceiling at all.
func TestCloseRejectsNaNMaxCost(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainProcess$", "--",
		"-close", "-maxcost", "NaN", "-threshold", "0.7", filepath.Join("testdata", "fail.ckt"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1\n%s", err, out)
	}
	if want := "MaxCost is NaN"; !strings.Contains(string(out), want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// TestMainProcess is statime's main for the exit-status tests: given
// arguments after "--" it runs main on them and exits; without any it does
// nothing.
func TestMainProcess(t *testing.T) {
	args := flag.Args()
	if len(args) == 0 {
		return
	}
	os.Args = append([]string{"statime"}, args...)
	flag.CommandLine = flag.NewFlagSet("statime", flag.ExitOnError)
	main()
	os.Exit(0)
}
