package mcd

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"unicode/utf8"
)

// fmtG renders a float compactly, with +Inf as "-" (unconstrained).
func fmtG(v float64) string {
	if math.IsInf(v, 0) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Summary renders the fixed-width multi-corner report: a header, then per
// corner the nominal and sampled WNS/TNS and the endpoint table (worst
// nominal slack first). For slack the informative tail is the low one —
// Min is the worst draw seen — while criticality says where the WNS lives.
//
// The endpoint rows, which dominate the output, are rendered without fmt
// (see appendRow), each corner's in GOMAXPROCS contiguous chunks, one
// buffer per worker; the headers and the chunks are then joined once into
// a string grown to their exact total length.
func (r *Report) Summary() string {
	var head []byte
	name := r.Design
	if name == "" {
		name = "(unnamed)"
	}
	head = fmt.Appendf(head, "design %s: %d corners, %d samples/corner, threshold %g, seed %d\n",
		name, len(r.Corners), r.Samples, r.Threshold, r.Seed)
	head = fmt.Appendf(head, "variation: rSigma %g, cSigma %g", r.Variation.RSigma, r.Variation.CSigma)
	if r.Clipped > 0 {
		head = fmt.Appendf(head, " (%d clipped draws: low tail truncated, results biased up)", r.Clipped)
	}
	head = append(head, '\n')
	if r.WorstCorner != "" {
		head = fmt.Appendf(head, "worst corner: %s\n", r.WorstCorner)
	}
	// Corner i's two header lines end at cornerEnd[i] in head.
	cornerEnd := make([]int, len(r.Corners))
	rows := 0
	for i := range r.Corners {
		cr := &r.Corners[i]
		head = fmt.Appendf(head, "\ncorner %s (R x%g, C x%g): nominal WNS %s TNS %s",
			cr.Corner.Name, cr.Corner.RScale, cr.Corner.CScale,
			fmtG(cr.NominalWNS), fmtG(cr.NominalTNS))
		if cr.WNS != nil {
			head = fmt.Appendf(head, "   WNS mean %s std %s min %s", fmtG(cr.WNS.Mean), fmtG(cr.WNS.Std), fmtG(cr.WNS.Min))
		}
		head = append(head, '\n')
		head = fmt.Appendf(head, "%-12s %-10s %10s %10s %10s %10s %10s %10s %6s\n",
			"net", "output", "required", "nom.slack", "slk.mean", "slk.std", "slk.min", "arr.mean", "crit%")
		cornerEnd[i] = len(head)
		rows += len(cr.Endpoints)
	}
	// Worker w renders its contiguous share of each corner's rows, corner
	// after corner, into bufs[w]; its share of corner i ends at
	// ends[i*workers+w].
	workers := runtime.GOMAXPROCS(0)
	bufs := make([][]byte, workers)
	ends := make([]int, len(r.Corners)*workers)
	parallel(workers, func(w int) {
		b := make([]byte, 0, rowWidth*(rows/workers+len(r.Corners)))
		for i := range r.Corners {
			eps := r.Corners[i].Endpoints
			for k := w * len(eps) / workers; k < (w+1)*len(eps)/workers; k++ {
				b = appendRow(b, &eps[k])
			}
			ends[i*workers+w] = len(b)
		}
		bufs[w] = b
	})
	size := len(head)
	for _, b := range bufs {
		size += len(b)
	}
	var sb strings.Builder
	sb.Grow(size)
	prev, starts := 0, make([]int, workers)
	for i, end := range cornerEnd {
		sb.Write(head[prev:end])
		prev = end
		for w, b := range bufs {
			sb.Write(b[starts[w]:ends[i*workers+w]])
			starts[w] = ends[i*workers+w]
		}
	}
	sb.Write(head[prev:]) // all of it when there is no corner
	return sb.String()
}

// rowWidth is the length of an endpoint row whose names fit their columns.
const rowWidth = 12 + 1 + 10 + 6*11 + 7 + 1

// appendRow appends one endpoint row of Summary's table: %-12s %-10s, seven
// " %10s" columns and " %6.1f", as one fmt.Appendf would.
func appendRow(b []byte, e *EndpointDist) []byte {
	b = appendLeft(b, e.Net, 12)
	b = append(b, ' ')
	b = appendLeft(b, e.Output, 10)
	b = appendG(b, e.Required)
	b = appendG(b, e.NominalSlack)
	if e.Slack != nil {
		b = appendG(b, e.Slack.Mean)
		b = appendG(b, e.Slack.Std)
		b = appendG(b, e.Slack.Min)
	} else {
		b = append(b, "          -          -          -"...)
	}
	b = appendG(b, e.Arrival.Mean)
	// %6.1f: fmt prints exactly strconv's 'f' digits, "+Inf" and "NaN"
	// included, right-aligned.
	var num [32]byte
	b = append(b, ' ')
	b = appendRight(b, strconv.AppendFloat(num[:0], 100*e.Criticality, 'f', 1, 64), 6)
	return append(b, '\n')
}

// appendLeft appends s left-aligned in a field of width runes, as %-Ns.
func appendLeft(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// appendRight appends the ASCII field s right-aligned in width columns, as
// %Ns.
func appendRight(b, s []byte, width int) []byte {
	for n := len(s); n < width; n++ {
		b = append(b, ' ')
	}
	return append(b, s...)
}

// appendG appends a space and fmtG(v) right-aligned in 10 columns: one
// " %10s" column of the endpoint table.
func appendG(b []byte, v float64) []byte {
	var num [32]byte
	s := append(num[:0], '-')
	if !math.IsInf(v, 0) {
		s = strconv.AppendFloat(num[:0], v, 'g', 6, 64)
	}
	return appendRight(append(b, ' '), s, 10)
}

// WriteCSV emits one row per corner × endpoint. Unconstrained endpoints
// leave the required/slack columns empty.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"corner", "net", "output", "required", "nominal_slack", "criticality",
		"arrival_mean", "arrival_std", "arrival_p50", "arrival_p95", "arrival_p99",
		"slack_mean", "slack_std", "slack_min", "slack_p50",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("mcd: csv: %w", err)
	}
	g := func(v float64) string {
		if math.IsInf(v, 0) {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for i := range r.Corners {
		cr := &r.Corners[i]
		for _, e := range cr.Endpoints {
			row := []string{
				cr.Corner.Name, e.Net, e.Output,
				g(e.Required), g(e.NominalSlack),
				strconv.FormatFloat(e.Criticality, 'g', -1, 64),
				g(e.Arrival.Mean), g(e.Arrival.Std), g(e.Arrival.P50), g(e.Arrival.P95), g(e.Arrival.P99),
			}
			if e.Slack != nil {
				row = append(row, g(e.Slack.Mean), g(e.Slack.Std), g(e.Slack.Min), g(e.Slack.P50))
			} else {
				row = append(row, "", "", "", "")
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("mcd: csv: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Wire shapes: +Inf is not representable in JSON, so unconstrained
// requireds/slacks ride as nil pointers (the timing.Report convention).
type jsonEndpointDist struct {
	Net            string   `json:"net"`
	Output         string   `json:"output"`
	Required       *float64 `json:"required,omitempty"`
	NominalArrival float64  `json:"nominalArrival"`
	NominalSlack   *float64 `json:"nominalSlack,omitempty"`
	Arrival        Dist     `json:"arrival"`
	Slack          *Dist    `json:"slack,omitempty"`
	Criticality    float64  `json:"criticality"`
}

type jsonCornerResult struct {
	Corner     Corner             `json:"corner"`
	NominalWNS *float64           `json:"nominalWns,omitempty"`
	NominalTNS float64            `json:"nominalTns"`
	WNS        *Dist              `json:"wns,omitempty"`
	TNS        Dist               `json:"tns"`
	Endpoints  []jsonEndpointDist `json:"endpoints"`
}

type jsonReport struct {
	Design      string             `json:"design,omitempty"`
	Threshold   float64            `json:"threshold"`
	Samples     int                `json:"samples"`
	Seed        int64              `json:"seed"`
	Variation   Variation          `json:"variation"`
	Clipped     int                `json:"clipped"`
	WorstCorner string             `json:"worstCorner,omitempty"`
	Corners     []jsonCornerResult `json:"corners"`
}

// finitePtr maps +Inf (unconstrained) to nil for the JSON wire form.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func (r *Report) wire() jsonReport {
	out := jsonReport{
		Design: r.Design, Threshold: r.Threshold,
		Samples: r.Samples, Seed: r.Seed,
		Variation: r.Variation, Clipped: r.Clipped,
		WorstCorner: r.WorstCorner,
	}
	for i := range r.Corners {
		cr := &r.Corners[i]
		jc := jsonCornerResult{
			Corner:     cr.Corner,
			NominalWNS: finitePtr(cr.NominalWNS),
			NominalTNS: cr.NominalTNS,
			WNS:        cr.WNS,
			TNS:        cr.TNS,
		}
		for _, e := range cr.Endpoints {
			jc.Endpoints = append(jc.Endpoints, jsonEndpointDist{
				Net: e.Net, Output: e.Output,
				Required:       finitePtr(e.Required),
				NominalArrival: e.NominalArrival,
				NominalSlack:   finitePtr(e.NominalSlack),
				Arrival:        e.Arrival,
				Slack:          e.Slack,
				Criticality:    e.Criticality,
			})
		}
		out.Corners = append(out.Corners, jc)
	}
	return out
}

// WriteJSON emits the report as indented JSON with a stable schema.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.wire()); err != nil {
		return fmt.Errorf("mcd: json: %w", err)
	}
	return nil
}

// MarshalJSON makes the report JSON-safe anywhere it is embedded (the
// rcserve corners endpoint embeds it in its envelope).
func (r *Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.wire())
}
