package timing

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// ECO edit-list grammar (statime -eco replays files of this form): one edit
// per line, '*' or '#' comment lines, ';' trailing comments, blank lines
// ignored. Ops are case-insensitive; values accept SPICE suffixes (2n, 5k).
// Node-level ops address "net.node" (split at the first dot); net-level ops
// take the bare net name.
//
//	setR net.node R
//	setC net.node C
//	addC net.node C
//	setLine net.node R C
//	scaleDriver net FACTOR
//	grow net.parent name resistor R
//	grow net.parent name line R C
//	prune net.node
//	addOutput net.node
//	removeOutput net.node

// ParseEdits reads an ECO edit list. Structural validity (do the nets and
// nodes exist, are the values legal) is the session's concern at Apply time;
// the parser only enforces the line grammar.
func ParseEdits(src string) ([]Edit, error) {
	var edits []Edit
	for lineNo, raw := range strings.Split(src, "\n") {
		no := lineNo + 1
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		e, err := parseEditLine(fields)
		if err != nil {
			return nil, fmt.Errorf("timing: eco line %d: %w", no, err)
		}
		edits = append(edits, e)
	}
	return edits, nil
}

// canonicalOps maps the lower-cased op word to the Edit.Op spelling.
var canonicalOps = map[string]string{
	"setr": "setR", "setc": "setC", "addc": "addC", "setline": "setLine",
	"scaledriver": "scaleDriver", "grow": "grow", "prune": "prune",
	"addoutput": "addOutput", "removeoutput": "removeOutput",
}

func parseEditLine(fields []string) (Edit, error) {
	op, ok := canonicalOps[strings.ToLower(fields[0])]
	if !ok {
		return Edit{}, fmt.Errorf("unknown op %q", fields[0])
	}
	e := Edit{Op: op}
	val := func(s string) (*float64, error) {
		v, err := netlist.ParseValue(s)
		if err != nil {
			return nil, err
		}
		return &v, nil
	}
	nodeAddr := func(addr string) error {
		e.Net, e.Node = SplitAddr(addr)
		if e.Net == "" || e.Node == "" {
			return fmt.Errorf("address %q is not of the form net.node", addr)
		}
		return nil
	}
	argc := func(n int) error {
		if len(fields) != n {
			return fmt.Errorf("%s takes %d arguments, got %d", op, n-1, len(fields)-1)
		}
		return nil
	}
	var err error
	switch op {
	case "setR", "setC", "addC":
		if err = argc(3); err != nil {
			return Edit{}, err
		}
		if err = nodeAddr(fields[1]); err != nil {
			return Edit{}, err
		}
		p, err := val(fields[2])
		if err != nil {
			return Edit{}, err
		}
		if op == "setR" {
			e.R = p
		} else {
			e.C = p
		}
	case "setLine":
		if err = argc(4); err != nil {
			return Edit{}, err
		}
		if err = nodeAddr(fields[1]); err != nil {
			return Edit{}, err
		}
		if e.R, err = val(fields[2]); err != nil {
			return Edit{}, err
		}
		if e.C, err = val(fields[3]); err != nil {
			return Edit{}, err
		}
	case "scaleDriver":
		if err = argc(3); err != nil {
			return Edit{}, err
		}
		e.Net = fields[1]
		if e.Factor, err = val(fields[2]); err != nil {
			return Edit{}, err
		}
	case "grow":
		// grow net.parent name kind R [C]
		if len(fields) != 5 && len(fields) != 6 {
			return Edit{}, fmt.Errorf("grow takes 'net.parent name kind R [C]', got %d arguments", len(fields)-1)
		}
		e.Net, e.Parent = SplitAddr(fields[1])
		if e.Net == "" || e.Parent == "" {
			return Edit{}, fmt.Errorf("address %q is not of the form net.parent", fields[1])
		}
		e.Name = fields[2]
		switch strings.ToLower(fields[3]) {
		case "resistor":
			e.Kind = "resistor"
			if len(fields) != 5 {
				return Edit{}, fmt.Errorf("grow resistor takes R only")
			}
		case "line":
			e.Kind = "line"
			if len(fields) != 6 {
				return Edit{}, fmt.Errorf("grow line takes R and C")
			}
		default:
			return Edit{}, fmt.Errorf("unknown edge kind %q (want resistor or line)", fields[3])
		}
		if e.R, err = val(fields[4]); err != nil {
			return Edit{}, err
		}
		if len(fields) == 6 {
			if e.C, err = val(fields[5]); err != nil {
				return Edit{}, err
			}
		}
	case "prune", "addOutput", "removeOutput":
		if err = argc(2); err != nil {
			return Edit{}, err
		}
		if err = nodeAddr(fields[1]); err != nil {
			return Edit{}, err
		}
	}
	return e, nil
}

// FormatEdits renders edits back into the line grammar. Any edit ParseEdits
// produced round-trips exactly (FuzzEditOps pins this down). Hand-assembled
// edits must carry their op's required values: a missing value renders as
// "?" and an unknown op as its raw word, both of which a reparse rejects —
// a malformed edit list fails loudly instead of losing edits silently.
func FormatEdits(edits []Edit) string {
	var sb strings.Builder
	g := func(p *float64) string {
		if p == nil {
			return "?"
		}
		return strconv.FormatFloat(*p, 'g', -1, 64)
	}
	for _, e := range edits {
		switch e.Op {
		case "setR":
			fmt.Fprintf(&sb, "setR %s.%s %s\n", e.Net, e.Node, g(e.R))
		case "setC":
			fmt.Fprintf(&sb, "setC %s.%s %s\n", e.Net, e.Node, g(e.C))
		case "addC":
			fmt.Fprintf(&sb, "addC %s.%s %s\n", e.Net, e.Node, g(e.C))
		case "setLine":
			fmt.Fprintf(&sb, "setLine %s.%s %s %s\n", e.Net, e.Node, g(e.R), g(e.C))
		case "scaleDriver":
			fmt.Fprintf(&sb, "scaleDriver %s %s\n", e.Net, g(e.Factor))
		case "grow":
			// Mirror EdgeKindOf's default: an empty kind with C > 0 is a line
			// at Apply time, so it must format as one (dropping C here would
			// silently change the circuit on replay).
			if e.Kind == "line" || (e.Kind == "" && e.C != nil && *e.C > 0) {
				fmt.Fprintf(&sb, "grow %s.%s %s line %s %s\n", e.Net, e.Parent, e.Name, g(e.R), g(e.C))
			} else {
				fmt.Fprintf(&sb, "grow %s.%s %s resistor %s\n", e.Net, e.Parent, e.Name, g(e.R))
			}
		case "prune", "addOutput", "removeOutput":
			fmt.Fprintf(&sb, "%s %s.%s\n", e.Op, e.Net, e.Node)
		default:
			fmt.Fprintf(&sb, "%s %s.%s\n", e.Op, e.Net, e.Node)
		}
	}
	return sb.String()
}

// EcoRow is one endpoint's before/after record in an ECO delta report.
type EcoRow struct {
	Net    string
	Output string
	// Before and After are the endpoint's latest-arrival bounds; Slack
	// fields are +Inf for unconstrained endpoints. A "new" endpoint (grown
	// during the ECO) has no Before; a "removed" one no After.
	ArrivalBefore Interval
	ArrivalAfter  Interval
	SlackBefore   float64
	SlackAfter    float64
	// Delta is ArrivalBefore.Max - ArrivalAfter.Max: positive means the
	// endpoint got faster. With requirements fixed across an ECO this equals
	// the slack gain. Zero for new/removed endpoints.
	Delta         float64
	VerdictBefore string
	VerdictAfter  string
	// Status is "" for an endpoint present on both sides, "new" or
	// "removed" otherwise.
	Status string
}

// EcoReport is the slack-delta view of one ECO: every endpoint before vs
// after the edit list, plus the sweep's dirty-cone statistics.
type EcoReport struct {
	Design      string
	Threshold   float64
	Applied     int
	DirtyNets   int
	VisitedNets int
	Nets        int
	WNSBefore   float64
	WNSAfter    float64
	TNSBefore   float64
	TNSAfter    float64
	// Rows follow the after-report's endpoint order (worst slack first);
	// removed endpoints trail in before-report order.
	Rows []EcoRow
}

// NewEcoReport joins the endpoint tables of two reports of the same design
// into a delta report. res carries the Apply statistics.
func NewEcoReport(before, after *Report, res ApplyResult) *EcoReport {
	rep := &EcoReport{
		Design:      after.Design,
		Threshold:   after.Threshold,
		Applied:     res.Applied,
		DirtyNets:   res.DirtyNets,
		VisitedNets: res.VisitedNets,
		Nets:        after.Nets,
		WNSBefore:   before.WNS,
		WNSAfter:    after.WNS,
		TNSBefore:   before.TNS,
		TNSAfter:    after.TNS,
	}
	type key struct{ net, output string }
	prev := make(map[key]*EndpointSlack, len(before.Endpoints))
	for i := range before.Endpoints {
		e := &before.Endpoints[i]
		prev[key{e.Net, e.Output}] = e
	}
	seen := make(map[key]bool, len(after.Endpoints))
	for i := range after.Endpoints {
		e := &after.Endpoints[i]
		k := key{e.Net, e.Output}
		seen[k] = true
		row := EcoRow{
			Net: e.Net, Output: e.Output,
			ArrivalAfter: e.Arrival, SlackAfter: e.Slack,
			SlackBefore:  math.Inf(1),
			VerdictAfter: e.Verdict.String(),
		}
		if b, ok := prev[k]; ok {
			row.ArrivalBefore = b.Arrival
			row.SlackBefore = b.Slack
			row.VerdictBefore = b.Verdict.String()
			row.Delta = b.Arrival.Max - e.Arrival.Max
		} else {
			row.Status = "new"
		}
		rep.Rows = append(rep.Rows, row)
	}
	for i := range before.Endpoints {
		e := &before.Endpoints[i]
		if seen[key{e.Net, e.Output}] {
			continue
		}
		rep.Rows = append(rep.Rows, EcoRow{
			Net: e.Net, Output: e.Output,
			ArrivalBefore: e.Arrival, SlackBefore: e.Slack,
			SlackAfter:    math.Inf(1),
			VerdictBefore: e.Verdict.String(),
			Status:        "removed",
		})
	}
	return rep
}

// Summary renders the fixed-width ECO delta report.
func (r *EcoReport) Summary() string {
	var b strings.Builder
	name := r.Design
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "eco %s: %d edits applied, threshold %g\n", name, r.Applied, r.Threshold)
	fmt.Fprintf(&b, "dirty cone: %d/%d nets re-timed (%d visited)\n", r.DirtyNets, r.Nets, r.VisitedNets)
	fmt.Fprintf(&b, "WNS %s -> %s   TNS %s -> %s\n\n",
		fmtG(r.WNSBefore), fmtG(r.WNSAfter), fmtG(r.TNSBefore), fmtG(r.TNSAfter))
	fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s %12s %12s %-8s %-8s %s\n",
		"net", "output", "arr.before", "arr.after", "slk.before", "slk.after", "delta",
		"verdict", "was", "status")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s %12s %12s %-8s %-8s %s\n",
			row.Net, row.Output,
			ecoArr(row.ArrivalBefore, row.Status == "new"),
			ecoArr(row.ArrivalAfter, row.Status == "removed"),
			fmtG(row.SlackBefore), fmtG(row.SlackAfter), ecoDelta(row),
			row.VerdictAfter, row.VerdictBefore, row.Status)
	}
	return b.String()
}

// ecoArr renders an arrival max, with "-" for the missing side of a
// new/removed endpoint.
func ecoArr(iv Interval, absent bool) string {
	if absent {
		return "-"
	}
	return fmtG(iv.Max)
}

func ecoDelta(row EcoRow) string {
	if row.Status != "" {
		return "-"
	}
	return fmtG(row.Delta)
}

// WriteCSV emits the delta table as CSV, one row per endpoint. Absent
// fields (unconstrained slacks, the missing side of new/removed endpoints)
// are left empty.
func (r *EcoReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"net", "output", "arrival_max_before", "arrival_max_after",
		"slack_before", "slack_after", "delta", "verdict_before", "verdict_after", "status",
	}); err != nil {
		return fmt.Errorf("timing: eco csv: %w", err)
	}
	g := func(v float64) string {
		if math.IsInf(v, 0) {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for _, row := range r.Rows {
		before, after, delta := g(row.ArrivalBefore.Max), g(row.ArrivalAfter.Max), g(row.Delta)
		if row.Status == "new" {
			before, delta = "", ""
		}
		if row.Status == "removed" {
			after, delta = "", ""
		}
		rec := []string{
			row.Net, row.Output, before, after,
			g(row.SlackBefore), g(row.SlackAfter), delta,
			row.VerdictBefore, row.VerdictAfter, row.Status,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("timing: eco csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Wire shapes: infinities ride as omitted pointers, as in the chip report.
type jsonEcoRow struct {
	Net           string    `json:"net"`
	Output        string    `json:"output"`
	ArrivalBefore *Interval `json:"arrivalBefore,omitempty"`
	ArrivalAfter  *Interval `json:"arrivalAfter,omitempty"`
	SlackBefore   *float64  `json:"slackBefore,omitempty"`
	SlackAfter    *float64  `json:"slackAfter,omitempty"`
	Delta         *float64  `json:"delta,omitempty"`
	VerdictBefore string    `json:"verdictBefore,omitempty"`
	VerdictAfter  string    `json:"verdictAfter,omitempty"`
	Status        string    `json:"status,omitempty"`
}

type jsonEcoReport struct {
	Design      string       `json:"design,omitempty"`
	Threshold   float64      `json:"threshold"`
	Applied     int          `json:"applied"`
	DirtyNets   int          `json:"dirtyNets"`
	VisitedNets int          `json:"visitedNets"`
	Nets        int          `json:"nets"`
	WNSBefore   *float64     `json:"wnsBefore,omitempty"`
	WNSAfter    *float64     `json:"wnsAfter,omitempty"`
	TNSBefore   float64      `json:"tnsBefore"`
	TNSAfter    float64      `json:"tnsAfter"`
	Rows        []jsonEcoRow `json:"rows"`
}

func (r *EcoReport) wire() jsonEcoReport {
	out := jsonEcoReport{
		Design: r.Design, Threshold: r.Threshold,
		Applied: r.Applied, DirtyNets: r.DirtyNets, VisitedNets: r.VisitedNets,
		Nets:      r.Nets,
		WNSBefore: finitePtr(r.WNSBefore), WNSAfter: finitePtr(r.WNSAfter),
		TNSBefore: r.TNSBefore, TNSAfter: r.TNSAfter,
	}
	for _, row := range r.Rows {
		jr := jsonEcoRow{
			Net: row.Net, Output: row.Output,
			SlackBefore: finitePtr(row.SlackBefore), SlackAfter: finitePtr(row.SlackAfter),
			VerdictBefore: row.VerdictBefore, VerdictAfter: row.VerdictAfter,
			Status: row.Status,
		}
		if row.Status != "new" {
			iv := row.ArrivalBefore
			jr.ArrivalBefore = &iv
		}
		if row.Status != "removed" {
			iv := row.ArrivalAfter
			jr.ArrivalAfter = &iv
		}
		if row.Status == "" {
			d := row.Delta
			jr.Delta = &d
		}
		out.Rows = append(out.Rows, jr)
	}
	return out
}

// WriteJSON emits the delta report as indented JSON with a stable schema.
func (r *EcoReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.wire()); err != nil {
		return fmt.Errorf("timing: eco json: %w", err)
	}
	return nil
}

// MarshalJSON makes the delta report embeddable in JSON envelopes.
func (r *EcoReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.wire())
}
