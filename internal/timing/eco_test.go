package timing

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netlist"
)

func TestParseEdits(t *testing.T) {
	src := `
* comment line
# another comment
setR drv.o 5k        ; trailing comment
setC bus.far 0.1
addC bus.far 2p
setLine bus.far 10 2
scaleDriver drv 0.5
grow bus.far tap resistor 5
grow bus.far tap2 line 5 2
prune bus.tap
addOutput bus.tap2
removeOutput bus.tap2
`
	edits, err := ParseEdits(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Edit{
		{Op: "setR", Net: "drv", Node: "o", R: f64(5000)},
		{Op: "setC", Net: "bus", Node: "far", C: f64(0.1)},
		{Op: "addC", Net: "bus", Node: "far", C: f64(2e-12)},
		{Op: "setLine", Net: "bus", Node: "far", R: f64(10), C: f64(2)},
		{Op: "scaleDriver", Net: "drv", Factor: f64(0.5)},
		{Op: "grow", Net: "bus", Parent: "far", Name: "tap", Kind: "resistor", R: f64(5)},
		{Op: "grow", Net: "bus", Parent: "far", Name: "tap2", Kind: "line", R: f64(5), C: f64(2)},
		{Op: "prune", Net: "bus", Node: "tap"},
		{Op: "addOutput", Net: "bus", Node: "tap2"},
		{Op: "removeOutput", Net: "bus", Node: "tap2"},
	}
	if len(edits) != len(want) {
		t.Fatalf("parsed %d edits, want %d", len(edits), len(want))
	}
	for i := range want {
		if !editsEqual(edits[i], want[i]) {
			t.Errorf("edit %d = %s, want %s", i, FormatEdits(edits[i:i+1]), FormatEdits(want[i:i+1]))
		}
	}
	// Round trip through the formatter.
	back, err := ParseEdits(FormatEdits(edits))
	if err != nil {
		t.Fatalf("formatted edits failed to reparse: %v", err)
	}
	if !reflect.DeepEqual(edits, back) {
		t.Errorf("round trip changed edits:\n%s\nvs\n%s", FormatEdits(edits), FormatEdits(back))
	}
}

func TestParseEditsErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"warp a.b 1", "unknown op"},
		{"setR ab 1", "net.node"},
		{"setR .b 1", "net.node"},
		{"setR a. 1", "net.node"},
		{"setR a.b", "arguments"},
		{"setR a.b 1 2", "arguments"},
		{"setR a.b x", "bad value"},
		{"setLine a.b 1", "arguments"},
		{"scaleDriver a", "arguments"},
		{"grow a.b name resistor 1 2", "resistor takes R only"},
		{"grow a.b name line 1", "line takes R and C"},
		{"grow a.b name coil 1", "unknown edge kind"},
		{"grow a.b", "grow takes"},
		{"prune a.b extra", "arguments"},
		{"setR a.b 1e999", "bad value"},
	}
	for _, tc := range cases {
		if _, err := ParseEdits(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseEdits(%q) err = %v, want %q", tc.src, err, tc.want)
		}
	}
	// Empty input is an empty edit list, not an error.
	if edits, err := ParseEdits("\n* nothing\n"); err != nil || len(edits) != 0 {
		t.Errorf("empty list: %v, %v", edits, err)
	}
}

// TestFormatEditsMalformed: hand-assembled edits with missing values or
// unknown ops must render as lines a reparse rejects — loud, not lossy.
func TestFormatEditsMalformed(t *testing.T) {
	missing := FormatEdits([]Edit{{Op: "setR", Net: "a", Node: "b"}}) // R nil
	if !strings.Contains(missing, "?") {
		t.Errorf("missing value rendered as %q", missing)
	}
	if _, err := ParseEdits(missing); err == nil {
		t.Error("reparse of a value-less edit did not fail")
	}
	unknown := FormatEdits([]Edit{{Op: "warp", Net: "a", Node: "b"}})
	if unknown == "" {
		t.Fatal("unknown op vanished from the formatted list")
	}
	if _, err := ParseEdits(unknown); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("reparse of an unknown op: %v", err)
	}
	// A default-kind grow with C > 0 is a line at Apply time (EdgeKindOf),
	// so it must format as one — dropping C would silently change the
	// replayed circuit.
	implicitLine := FormatEdits([]Edit{{Op: "grow", Net: "a", Parent: "b", Name: "t", R: f64(5), C: f64(2)}})
	back, err := ParseEdits(implicitLine)
	if err != nil {
		t.Fatalf("implicit-line grow failed reparse: %v\n%s", err, implicitLine)
	}
	if len(back) != 1 || back[0].Kind != "line" || back[0].C == nil || *back[0].C != 2 {
		t.Errorf("implicit-line grow round-tripped as %s", implicitLine)
	}
}

func editsEqual(a, b Edit) bool {
	eq := func(x, y *float64) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		return x == nil || *x == *y
	}
	return a.Op == b.Op && a.Net == b.Net && a.Node == b.Node && a.Parent == b.Parent &&
		a.Name == b.Name && a.Kind == b.Kind && eq(a.R, b.R) && eq(a.C, b.C) && eq(a.Factor, b.Factor)
}

func ecoFixture(t *testing.T) (*Session, *Report, *Report, ApplyResult) {
	t.Helper()
	a := simpleNet(t, "a", 10, 5)
	b := simpleNet(t, "b", 20, 3)
	d := &netlist.Design{
		Name:     "demo",
		Nets:     []netlist.DesignNet{a, b},
		Stages:   []netlist.Stage{{FromNet: "a", FromOutput: "o", ToNet: "b", Delay: 7}},
		Requires: []netlist.Require{{Net: "b", Output: "o", Time: 500}},
	}
	s := newTestSession(t, d, Options{})
	before := s.Report()
	res, err := s.Apply([]Edit{
		{Op: "setR", Net: "a", Node: "o", R: f64(40)},
		{Op: "grow", Net: "b", Parent: "o", Name: "tap", Kind: "line", R: f64(5), C: f64(2)},
		{Op: "addOutput", Net: "b", Node: "tap"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, before, s.Report(), res
}

func TestEcoReport(t *testing.T) {
	_, before, after, res := ecoFixture(t)
	eco := NewEcoReport(before, after, res)
	if eco.Design != "demo" || eco.Applied != 3 {
		t.Errorf("header = %+v", eco)
	}
	if len(eco.Rows) != 2 {
		t.Fatalf("rows = %+v", eco.Rows)
	}
	var grown, kept *EcoRow
	for i := range eco.Rows {
		switch eco.Rows[i].Output {
		case "tap":
			grown = &eco.Rows[i]
		case "o":
			kept = &eco.Rows[i]
		}
	}
	if grown == nil || grown.Status != "new" {
		t.Errorf("grown endpoint row = %+v", grown)
	}
	if kept == nil || kept.Status != "" {
		t.Fatalf("kept endpoint row = %+v", kept)
	}
	// The driver slowdown must show as a negative delta (arrival grew), and
	// delta must equal the slack loss since the requirement is unchanged.
	if kept.Delta >= 0 {
		t.Errorf("delta = %g, want negative after slowdown", kept.Delta)
	}
	if !closeEnough(kept.Delta, kept.SlackAfter-kept.SlackBefore) {
		t.Errorf("delta %g vs slack change %g", kept.Delta, kept.SlackAfter-kept.SlackBefore)
	}
	if !closeEnough(eco.WNSBefore, before.WNS) || !closeEnough(eco.WNSAfter, after.WNS) {
		t.Errorf("WNS before/after = %g/%g", eco.WNSBefore, eco.WNSAfter)
	}

	text := eco.Summary()
	for _, want := range []string{"eco demo", "3 edits applied", "dirty cone", "WNS", "new"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
	var csvBuf bytes.Buffer
	if err := eco.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csvBuf.String(), "\n"); lines != 3 {
		t.Errorf("csv lines = %d:\n%s", lines, csvBuf.String())
	}
	var jsonBuf bytes.Buffer
	if err := eco.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("json invalid: %v\n%s", err, jsonBuf.String())
	}
	if decoded["design"] != "demo" || decoded["applied"].(float64) != 3 {
		t.Errorf("json = %v", decoded)
	}
	if _, err := json.Marshal(eco); err != nil {
		t.Errorf("MarshalJSON: %v", err)
	}
}

func TestEcoReportRemovedEndpoint(t *testing.T) {
	s, _, _, _ := ecoFixture(t)
	mid := s.Report()
	res, err := s.Apply([]Edit{{Op: "prune", Net: "b", Node: "tap"}})
	if err != nil {
		t.Fatal(err)
	}
	eco := NewEcoReport(mid, s.Report(), res)
	var removed *EcoRow
	for i := range eco.Rows {
		if eco.Rows[i].Status == "removed" {
			removed = &eco.Rows[i]
		}
	}
	if removed == nil || removed.Output != "tap" {
		t.Fatalf("rows = %+v", eco.Rows)
	}
	if !math.IsInf(removed.SlackAfter, 1) {
		t.Errorf("removed slackAfter = %g", removed.SlackAfter)
	}
	// Renderers must survive the one-sided row.
	if !strings.Contains(eco.Summary(), "removed") {
		t.Error("summary missing removed status")
	}
	var buf bytes.Buffer
	if err := eco.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := eco.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestEcoUnconstrainedDelta checks the delta stays finite and meaningful on
// endpoints with no requirement (slack is +Inf on both sides).
func TestEcoUnconstrainedDelta(t *testing.T) {
	a := simpleNet(t, "a", 10, 5)
	d := &netlist.Design{Nets: []netlist.DesignNet{a}}
	s := newTestSession(t, d, Options{})
	before := s.Report()
	res, err := s.Apply([]Edit{{Op: "setR", Net: "a", Node: "o", R: f64(5)}})
	if err != nil {
		t.Fatal(err)
	}
	eco := NewEcoReport(before, s.Report(), res)
	row := eco.Rows[0]
	if row.Delta <= 0 {
		t.Errorf("halved R should speed the endpoint: delta = %g", row.Delta)
	}
	if !math.IsInf(row.SlackBefore, 1) || !math.IsInf(row.SlackAfter, 1) {
		t.Errorf("unconstrained slacks = %g/%g", row.SlackBefore, row.SlackAfter)
	}
	var buf bytes.Buffer
	if err := eco.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Inf") {
		t.Errorf("json leaked an infinity:\n%s", buf.String())
	}
}

func TestSessionThresholdValidation(t *testing.T) {
	a := simpleNet(t, "a", 10, 5)
	d := &netlist.Design{Nets: []netlist.DesignNet{a}}
	if _, err := NewSession(context.Background(), d, Options{Threshold: 2}); err == nil {
		t.Error("threshold 2 accepted")
	}
	if _, err := NewSession(context.Background(), nil, Options{}); err == nil {
		t.Error("nil design accepted")
	}
}
