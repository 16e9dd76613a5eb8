package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// writeFanout writes a two-output net whose branches are identical, so both
// outputs carry the same slack and the report orders them by name.
func writeFanout(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	deck := `
.input in
R1 in n1 380
C1 n1 0 0.04
U1 n1 y 900 0.05
C2 y 0 0.013
U2 n1 x 900 0.05
C3 x 0 0.013
.output y
.output x
`
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBranches writes a three-output net whose branches g1, g2, g3 grow
// longer in that order, so g3 is the slowest output.
func writeBranches(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	deck := `
.input in
R1 in n1 380
C1 n1 0 0.04
U1 n1 g1 90 0.005
C2 g1 0 0.013
U2 n1 g2 180 0.01
C3 g2 0 0.013
U3 n1 g3 540 0.03
C4 g3 0 0.013
.output g1
.output g2
.output g3
`
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// branchesReport times writeBranches' net at threshold 0.7.
func branchesReport(t *testing.T, deadline float64) *netReport {
	t.Helper()
	r, err := loadNets([]string{writeBranches(t, t.TempDir(), "net1.ckt")}, 0.7, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outputs) != 3 {
		t.Fatalf("outputs = %d, want 3", len(r.Outputs))
	}
	return r
}

// TestNetBoundsAndSlacks: every output of a net gets ordered bounds, slacks
// measured from them, and an Elmore column equal to the Elmore delay TD.
func TestNetBoundsAndSlacks(t *testing.T) {
	for _, o := range branchesReport(t, 1000).Outputs {
		if !(o.TMin <= o.TMax) {
			t.Errorf("%s: TMin %g > TMax %g", o.Output, o.TMin, o.TMax)
		}
		if o.Slack != 1000-o.TMax || o.OptimisticSlack != 1000-o.TMin {
			t.Errorf("%s: slacks %g/%g for bounds [%g, %g]", o.Output, o.Slack, o.OptimisticSlack, o.TMin, o.TMax)
		}
		if math.Abs(o.Elmore-o.TD) > 1e-9*(1+o.TD) {
			t.Errorf("%s: Elmore %g != TD %g", o.Output, o.Elmore, o.TD)
		}
	}
}

// TestNetReportOrder: rows come worst guaranteed slack first, ties broken by
// net and then by output name, whatever order the files were given in.
func TestNetReportOrder(t *testing.T) {
	dir := t.TempDir()
	p1 := writeNet(t, dir, "bus_a.ckt")
	p2 := writeNet(t, dir, "bus_b.ckt")
	p3 := writeFanout(t, dir, "fan.ckt")
	report, err := loadNets([]string{p3, p2, p1}, 0.7, 500)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, o := range report.Outputs {
		got = append(got, o.Net+"/"+o.Output)
	}
	// The bus's longer line makes it the worse net; bus_a and bus_b tie on
	// slack, as do fan's x and y.
	if want := []string{"bus_a/far", "bus_b/far", "fan/x", "fan/y"}; !slices.Equal(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if s := report.Outputs; s[0].Slack != s[1].Slack || s[1].Slack >= s[2].Slack || s[2].Slack != s[3].Slack {
		t.Errorf("slacks %g %g %g %g: want two tied pairs, the bus's lower", s[0].Slack, s[1].Slack, s[2].Slack, s[3].Slack)
	}
	// Without ties the longest branch is the critical output.
	if first := branchesReport(t, 500).Outputs[0].Output; first != "g3" {
		t.Errorf("worst-slack output = %q, want g3 (longest branch)", first)
	}
}

// TestNetsInOneRun: one run over two different nets reports every output of
// each, under its file's name, with tallies over all of them.
func TestNetsInOneRun(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(&out, []string{writeBranches(t, dir, "fan3.ckt"), writeNet(t, dir, "bus.ckt")}, 0.7, "400", "json")
	if err != nil {
		t.Fatal(err)
	}
	var report netReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, out.String())
	}
	var got []string
	for _, o := range report.Outputs {
		got = append(got, o.Net+"/"+o.Output)
	}
	slices.Sort(got)
	if want := []string{"bus/far", "fan3/g1", "fan3/g2", "fan3/g3"}; !slices.Equal(got, want) {
		t.Errorf("outputs = %v, want %v", got, want)
	}
	if report.Passes+report.Unknown+report.Fails != 4 {
		t.Errorf("tallies %d+%d+%d, want 4 outputs", report.Passes, report.Unknown, report.Fails)
	}
}

// TestVerdictsAtDeadlineBoundaries: a deadline equal to TMax passes, one
// just below TMin fails, and one between them is undecided.
func TestVerdictsAtDeadlineBoundaries(t *testing.T) {
	p := writeNet(t, t.TempDir(), "net.ckt")
	base, err := loadNets([]string{p}, 0.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := base.Outputs[0]
	for _, tc := range []struct {
		deadline float64
		want     string
	}{
		{o.TMax, "passes"},
		{math.Nextafter(o.TMin, 0), "fails"},
		{(o.TMin + o.TMax) / 2, "unknown"},
	} {
		r, err := loadNets([]string{p}, 0.7, tc.deadline)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Outputs[0].Verdict; got != tc.want {
			t.Errorf("deadline %g in [%g, %g]: verdict %s, want %s", tc.deadline, o.TMin, o.TMax, got, tc.want)
		}
	}
}

// TestVerdictTallies: the report's tallies count its rows' verdicts, a
// generous deadline passes every output and an impossible one fails every
// output.
func TestVerdictTallies(t *testing.T) {
	g1 := branchesReport(t, 0).Outputs[2] // worst slack last: the shortest branch
	for _, tc := range []struct {
		deadline float64
		all      string
	}{
		{1e7, "passes"},
		{1e-4, "fails"},
		{g1.TMax, ""}, // g1 passes, g3 does not
	} {
		r := branchesReport(t, tc.deadline)
		count := map[string]int{}
		for _, o := range r.Outputs {
			count[o.Verdict]++
		}
		if r.Passes != count["passes"] || r.Unknown != count["unknown"] || r.Fails != count["fails"] {
			t.Errorf("deadline %g: tallies %d/%d/%d, rows %v", tc.deadline, r.Passes, r.Unknown, r.Fails, count)
		}
		if tc.all != "" && count[tc.all] != 3 {
			t.Errorf("deadline %g: verdicts %v, want all %s", tc.deadline, count, tc.all)
		}
		if tc.all == "" && (count["passes"] == 0 || count["passes"] == 3) {
			t.Errorf("deadline %g: verdicts %v, want a mix", tc.deadline, count)
		}
	}
}

// TestNetSummary: the text table names every net and output, worst slack
// first, and ends with the tallies.
func TestNetSummary(t *testing.T) {
	r := branchesReport(t, 500)
	s := r.Summary()
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) != 5 || !strings.Contains(lines[0], "verdict") {
		t.Fatalf("want header, 3 rows and tallies:\n%s", s)
	}
	for i, o := range r.Outputs {
		if f := strings.Fields(lines[i+1]); f[0] != "net1" || f[1] != o.Output || f[6] != o.Verdict {
			t.Errorf("row %d = %q, want net1 %s ... %s", i, lines[i+1], o.Output, o.Verdict)
		}
	}
	if want := fmt.Sprintf("outputs: %d pass, %d unknown, %d fail", r.Passes, r.Unknown, r.Fails); lines[4] != want {
		t.Errorf("tallies line = %q, want %q", lines[4], want)
	}
}

// TestNetReportCSV: the CSV parses back to a header and one row per output,
// worst slack first, with numeric timing columns.
func TestNetReportCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := branchesReport(t, 500).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(records) != 4 {
		t.Fatalf("rows = %d, want header + 3", len(records))
	}
	if records[0][0] != "net" || records[0][11] != "verdict" {
		t.Errorf("header = %v", records[0])
	}
	if records[1][1] != "g3" {
		t.Errorf("first data row output = %q, want g3", records[1][1])
	}
	for _, row := range records[1:] {
		for col := 2; col <= 10; col++ {
			if _, err := strconv.ParseFloat(row[col], 64); err != nil {
				t.Errorf("column %d value %q not numeric", col, row[col])
			}
		}
	}
}

// TestNetReportJSON: the JSON is indented and carries every output's timing
// fields and the tallies.
func TestNetReportJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := branchesReport(t, 500).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Outputs []map[string]any `json:"outputs"`
		Passes  int              `json:"passes"`
		Unknown int              `json:"unknown"`
		Fails   int              `json:"fails"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(decoded.Outputs) != 3 {
		t.Fatalf("outputs = %d, want 3", len(decoded.Outputs))
	}
	if decoded.Passes+decoded.Unknown+decoded.Fails != 3 {
		t.Errorf("verdict counts = %d+%d+%d", decoded.Passes, decoded.Unknown, decoded.Fails)
	}
	for _, o := range decoded.Outputs {
		for _, key := range []string{"net", "output", "tp", "td", "tr", "tmin", "tmax", "slack", "verdict"} {
			if _, ok := o[key]; !ok {
				t.Errorf("output record missing %q: %v", key, o)
			}
		}
	}
	if !strings.Contains(buf.String(), "\n  ") {
		t.Error("JSON not indented")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestNetReportWriteErrors: a failing writer's error reaches run's caller in
// every format; the csv writer buffers, so its error surfaces only at the
// flush.
func TestNetReportWriteErrors(t *testing.T) {
	p := writeNet(t, t.TempDir(), "net.ckt")
	for _, format := range []string{"text", "csv", "json"} {
		if err := run(failWriter{}, []string{p}, 0.7, "5000", format); err == nil {
			t.Errorf("format %s: write error swallowed", format)
		}
	}
}

// TestRunRefusals: the default mode refuses a run with nothing to time or
// with a threshold or deadline outside its range.
func TestRunRefusals(t *testing.T) {
	dir := t.TempDir()
	p := writeNet(t, dir, "net.ckt")
	// A deck that parses to a tree with no leaf has nothing to time.
	noOut := filepath.Join(dir, "noout.ckt")
	if err := os.WriteFile(noOut, []byte(".input in\nC1 in 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		paths     []string
		threshold float64
		deadline  string
		want      string
	}{
		{"no files", nil, 0.7, "500", "no netlist files"},
		{"no outputs", []string{noOut}, 0.7, "500", "no outputs"},
		{"threshold zero", []string{p}, 0, "500", "outside (0,1)"},
		{"threshold one", []string{p}, 1, "500", "outside (0,1)"},
		{"negative deadline", []string{p}, 0.7, "-5", "negative deadline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(failWriter{}, tc.paths, tc.threshold, tc.deadline, "text")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestThresholdRefused: the default mode has no default threshold, so
// loadNets refuses every value outside the open interval (0,1), 0 and NaN
// included.
func TestThresholdRefused(t *testing.T) {
	p := writeNet(t, t.TempDir(), "net.ckt")
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"one", 1},
		{"negative", -0.1},
		{"zero", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := loadNets([]string{p}, tc.v, 500); err == nil {
				t.Errorf("threshold %g accepted", tc.v)
			}
		})
	}
	if _, err := loadNets([]string{p}, 0.7, 500); err != nil {
		t.Errorf("threshold 0.7 refused: %v", err)
	}
}
