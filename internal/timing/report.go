package timing

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
)

// EndpointSlack is the timing record of one endpoint: a net output that
// drives no further stage (or carries an explicit requirement).
type EndpointSlack struct {
	Net     string
	Output  string
	Arrival Interval
	// Required is the required arrival time, +Inf when unconstrained.
	Required float64
	// Slack is Required − Arrival.Max (the guaranteed margin), +Inf when
	// unconstrained. Negative means the bounds cannot certify the deadline.
	Slack   float64
	Verdict core.Verdict

	net int // graph index, for path backtracking
}

// Constrained reports whether the endpoint has a finite requirement.
func (e EndpointSlack) Constrained() bool { return !math.IsInf(e.Required, 1) }

// PathHop is one net along a critical path.
type PathHop struct {
	// Net is the net the path traverses; Output is the designated output it
	// leaves through.
	Net    string
	Output string
	// InputArrival brackets when the net's input is driven, OutputArrival
	// when the output crosses the threshold; NetDelay is the per-net
	// [TMin, TMax] between them.
	InputArrival  Interval
	NetDelay      Interval
	OutputArrival Interval
	// StageDelay is the intrinsic delay of the gate driving the next hop
	// (0 on the final hop).
	StageDelay float64
}

// Path is one critical path, hops ordered from a primary-input net to the
// endpoint.
type Path struct {
	Endpoint string
	Slack    float64
	Hops     []PathHop
}

// Report is the chip-level analysis of one design.
type Report struct {
	Design    string
	Threshold float64
	Nets      int
	Stages    int
	Levels    int
	// Endpoints are sorted worst slack first (unconstrained endpoints after
	// all constrained ones, by descending latest arrival).
	Endpoints []EndpointSlack
	// WNS is the worst (smallest) slack over constrained endpoints, +Inf
	// when nothing is constrained. TNS is the total negative slack.
	WNS float64
	TNS float64
	// Paths holds the K most critical paths, worst first.
	Paths []Path
}

// CountByVerdict tallies constrained endpoints per verdict.
func (r *Report) CountByVerdict() (passes, unknown, fails int) {
	var h Headline
	for i := range r.Endpoints {
		h.tally(&r.Endpoints[i])
	}
	return h.Passes, h.Unknown, h.Fails
}

// fmtG renders a float compactly, with +Inf as "-" (unconstrained).
func fmtG(v float64) string {
	if math.IsInf(v, 0) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Summary renders the fixed-width chip report: a header, the endpoint table
// (worst slack first) and the critical paths.
func (r *Report) Summary() string {
	var b strings.Builder
	name := r.Design
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "design %s: %d nets, %d stages, %d levels, threshold %g\n",
		name, r.Nets, r.Stages, r.Levels, r.Threshold)
	p, u, f := r.CountByVerdict()
	fmt.Fprintf(&b, "endpoints: %d (%d pass, %d unknown, %d fail)   WNS %s   TNS %s\n\n",
		len(r.Endpoints), p, u, f, fmtG(r.WNS), fmtG(r.TNS))
	fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s %12s %10s\n",
		"net", "output", "arr.min", "arr.max", "required", "slack", "verdict")
	for _, e := range r.Endpoints {
		fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s %12s %10s\n",
			e.Net, e.Output, fmtG(e.Arrival.Min), fmtG(e.Arrival.Max),
			fmtG(e.Required), fmtG(e.Slack), e.Verdict)
	}
	for i, p := range r.Paths {
		fmt.Fprintf(&b, "\ncritical path %d -> %s (slack %s):\n", i+1, p.Endpoint, fmtG(p.Slack))
		for _, h := range p.Hops {
			fmt.Fprintf(&b, "  %-12s %-10s in [%s, %s]  +net [%s, %s]  out [%s, %s]",
				h.Net, h.Output,
				fmtG(h.InputArrival.Min), fmtG(h.InputArrival.Max),
				fmtG(h.NetDelay.Min), fmtG(h.NetDelay.Max),
				fmtG(h.OutputArrival.Min), fmtG(h.OutputArrival.Max))
			if h.StageDelay > 0 {
				fmt.Fprintf(&b, "  +gate %s", fmtG(h.StageDelay))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// WriteCSV emits the endpoint table as CSV (header plus one row per
// endpoint, worst slack first). Unconstrained endpoints leave required and
// slack empty.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"net", "output", "arrival_min", "arrival_max", "required", "slack", "verdict"}); err != nil {
		return fmt.Errorf("timing: csv: %w", err)
	}
	g := func(v float64) string {
		if math.IsInf(v, 0) {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for _, e := range r.Endpoints {
		row := []string{
			e.Net, e.Output,
			g(e.Arrival.Min), g(e.Arrival.Max), g(e.Required), g(e.Slack),
			e.Verdict.String(),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("timing: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// The JSON form is written in one append pass that yields the bytes
// encoding/json gives for the report's wire structs (kept in
// report_test.go as the oracle), marshaled with HTML escaping and indented
// by an Encoder with SetIndent("", "  "). +Inf is not representable in
// JSON, so an infinite required time, slack or WNS is omitted. An empty
// endpoint or hop list is null; an empty path list is omitted.

// finitePtr maps +Inf (unconstrained) to nil for the JSON wire form.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// WriteJSON emits the report as indented JSON with a stable schema.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.AppendJSON(nil, 0)
	if err != nil {
		return fmt.Errorf("timing: json: %w", err)
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// MarshalJSON makes the report JSON-safe anywhere it is embedded (the
// rcserve design endpoints embed it in their envelopes).
func (r *Report) MarshalJSON() ([]byte, error) {
	return r.appendJSON(nil, false, 0, nil, nil, r.jsonSizeHint())
}

// AppendJSON appends the report as WriteJSON renders it, without the
// trailing newline, as if nested depth levels deep in an object indented
// the same way (depth 0 for a top-level value). dst is grown once up front
// to fit the report.
func (r *Report) AppendJSON(dst []byte, depth int) ([]byte, error) {
	return r.appendJSON(dst, true, depth, nil, nil, r.jsonSizeHint())
}

// epJSONHint is the indented JSON size jsonSizeHint allows per endpoint.
const epJSONHint = 320

// jsonSizeHint estimates the indented JSON size of the report.
func (r *Report) jsonSizeHint() int {
	n := 512 + epJSONHint*len(r.Endpoints)
	for _, p := range r.Paths {
		n += 128 + 448*len(p.Hops)
	}
	return n
}

// appendJSON renders the report into dst grown by hint bytes up front. rows,
// when not nil, locates each endpoint's numbers in text, formatted ahead by
// appendEndpointText (a live session keeps them between reads); otherwise
// each row's numbers are formatted into text as scratch.
func (r *Report) appendJSON(dst []byte, indent bool, depth int, rows []epText, text []byte, hint int) ([]byte, error) {
	var scratch [80]byte // one row's numbers, when rows is nil
	w := jsonWriter{b: slices.Grow(dst, hint), indent: indent, depth: depth}
	if rows == nil {
		text = scratch[:0]
	}
	p, u, f := r.CountByVerdict()
	w.open('{')
	if r.Design != "" {
		w.str("design", r.Design)
	}
	w.float("threshold", r.Threshold)
	w.int("nets", r.Nets)
	w.int("stages", r.Stages)
	w.int("levels", r.Levels)
	w.finite("wns", r.WNS)
	w.float("tns", r.TNS)
	w.int("passes", p)
	w.int("unknown", u)
	w.int("fails", f)
	w.key("endpoints")
	if len(r.Endpoints) == 0 {
		w.null()
	} else {
		w.open('[')
		for i := range r.Endpoints {
			e := &r.Endpoints[i]
			var t epText
			if rows != nil {
				t = rows[i]
			} else {
				var err error
				text, t, err = appendEndpointText(text[:0], e)
				w.fail(err)
			}
			w.endpoint(e, text, t)
		}
		w.close(']')
	}
	if len(r.Paths) > 0 {
		w.key("paths")
		w.open('[')
		for i := range r.Paths {
			path := &r.Paths[i]
			w.elem()
			w.str("endpoint", path.Endpoint)
			w.finite("slack", path.Slack)
			w.key("hops")
			if len(path.Hops) == 0 {
				w.null()
			} else {
				w.open('[')
				for j := range path.Hops {
					h := &path.Hops[j]
					w.elem()
					w.str("net", h.Net)
					w.str("output", h.Output)
					w.interval("inputArrival", h.InputArrival)
					w.interval("netDelay", h.NetDelay)
					w.interval("outputArrival", h.OutputArrival)
					if h.StageDelay != 0 {
						w.float("stageDelay", h.StageDelay)
					}
					w.close('}')
				}
				w.close(']')
			}
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
	return w.b, w.err
}

// jsonWriter appends JSON to b, compact or indented two spaces per level.
// first is whether the innermost open container is still empty.
// reqText[:reqLen], when not empty, is the text of the last endpoint
// required time, whose bits are reqBits: most endpoints share the default
// one.
type jsonWriter struct {
	b       []byte
	indent  bool
	depth   int
	first   bool
	err     error
	reqBits uint64
	reqLen  int
	reqText [32]byte
}

// fail records the first error.
func (w *jsonWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// newlineIndent holds a newline and the indentation of up to 15 levels.
const newlineIndent = "\n                              "

func (w *jsonWriter) newline() {
	if !w.indent {
		return
	}
	if n := 1 + 2*w.depth; n <= len(newlineIndent) {
		w.b = append(w.b, newlineIndent[:n]...)
		return
	}
	w.b = append(w.b, '\n')
	for range w.depth {
		w.b = append(w.b, "  "...)
	}
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	w.newline()
	w.b = append(w.b, c)
	w.first = false
}

// sep starts the next value of the innermost container.
func (w *jsonWriter) sep() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// elem opens the next object element of the innermost array.
func (w *jsonWriter) elem() {
	w.sep()
	w.open('{')
}

// key starts the member k (a plain ASCII name) of the innermost object.
func (w *jsonWriter) key(k string) {
	w.sep()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

func (w *jsonWriter) null() { w.b = append(w.b, "null"...) }

func (w *jsonWriter) str(k, s string) {
	w.key(k)
	w.b = appendJSONString(w.b, s)
}

func (w *jsonWriter) int(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

// float writes the member k = v formatted as encoding/json does; NaN and
// ±Inf are errors.
func (w *jsonWriter) float(k string, v float64) {
	w.key(k)
	var err error
	w.b, err = appendJSONFloat(w.b, v)
	w.fail(err)
}

// raw writes the member k with text, a number already formatted.
func (w *jsonWriter) raw(k string, text []byte) {
	w.key(k)
	w.b = append(w.b, text...)
}

// appendJSONFloat appends v formatted as encoding/json does; NaN and ±Inf
// are errors.
func appendJSONFloat(b []byte, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7, as in ES6 number formatting.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// epText locates one endpoint's numbers in a text buffer: the arrival min
// and max from off, then the slack, whose length is 0 when it is infinite
// (the member is omitted then).
type epText struct {
	off             uint32
	min, max, slack uint8
}

// appendEndpointText appends e's arrival min, arrival max and finite slack
// in the JSON number form and returns where they landed. Like the writer,
// it refuses a non-finite arrival and a NaN slack.
func appendEndpointText(b []byte, e *EndpointSlack) ([]byte, epText, error) {
	t := epText{off: uint32(len(b))}
	n := len(b)
	var err error
	if b, err = appendJSONFloat(b, e.Arrival.Min); err != nil {
		return b, t, err
	}
	t.min, n = uint8(len(b)-n), len(b)
	if b, err = appendJSONFloat(b, e.Arrival.Max); err != nil {
		return b, t, err
	}
	t.max, n = uint8(len(b)-n), len(b)
	if !math.IsInf(e.Slack, 0) {
		b, err = appendJSONFloat(b, e.Slack)
		t.slack = uint8(len(b) - n)
	}
	return b, t, err
}

// endpoint writes the endpoint row e, whose numbers t locates in text.
func (w *jsonWriter) endpoint(e *EndpointSlack, text []byte, t epText) {
	w.elem()
	w.str("net", e.Net)
	w.str("output", e.Output)
	w.key("arrival")
	w.open('{')
	at := int(t.off)
	w.raw("min", text[at:at+int(t.min)])
	at += int(t.min)
	w.raw("max", text[at:at+int(t.max)])
	at += int(t.max)
	w.close('}')
	if !math.IsInf(e.Required, 0) {
		if bits := math.Float64bits(e.Required); w.reqLen == 0 || bits != w.reqBits {
			text, err := appendJSONFloat(w.reqText[:0], e.Required)
			w.reqLen, w.reqBits = copy(w.reqText[:], text), bits
			w.fail(err)
		}
		w.raw("required", w.reqText[:w.reqLen])
	}
	if t.slack > 0 {
		w.raw("slack", text[at:at+int(t.slack)])
	}
	w.str("verdict", e.Verdict.String())
	w.close('}')
}

// finite writes the member k = v unless v is infinite.
func (w *jsonWriter) finite(k string, v float64) {
	if !math.IsInf(v, 0) {
		w.float(k, v)
	}
}

func (w *jsonWriter) interval(k string, iv Interval) {
	w.key(k)
	w.open('{')
	w.float("min", iv.Min)
	w.float("max", iv.Max)
	w.close('}')
}

// appendJSONString appends s as a JSON string with encoding/json's escapes:
// HTML-safe, invalid UTF-8 as U+FFFD, and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
