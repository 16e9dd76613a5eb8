package timing

import (
	"fmt"
	"slices"

	"repro/internal/incr"
	"repro/internal/netlist"
)

// The live-session renderers. An ECO edit batch changes a few nets, so a
// session that serves slack reads and WAL snapshots keeps what it rendered
// last and redoes only the nets that changed since. Each renderer builds its
// state on its first call; Fork never copies it, so closure trials and other
// what-if copies pay nothing for it.

// liveReport is the state AppendReportJSON keeps between reads.
type liveReport struct {
	// eps are the last read's endpoints in report order. The slice may be a
	// Report's Endpoints too, so it is never written: a merge builds a new
	// one.
	eps []EndpointSlack
	// rows[i] locates eps[i]'s numbers in text, which holds nothing else:
	// each merge copies the kept rows' text into the spare buffers, appends
	// the new rows', and swaps.
	rows, spareRows []epText
	text, spareText []byte
	// marked[i] reports that propagate changed net i's outputs since the
	// last read.
	marked []bool
	// size is the length of the last body rendered, from sizeText bytes of
	// text and sizeEps endpoints.
	size, sizeText, sizeEps int
}

// mark records that net i's outputs changed; propagate calls it wherever it
// marks a net dirty.
func (s *Session) mark(i int) {
	if s.live != nil {
		s.live.marked[i] = true
	}
}

// refreshLive brings s.live up to the current state. The marked nets'
// endpoints are re-derived and sorted in report order, the kept endpoints
// of every other net are already in that order, and a linear merge of the
// two gives what a full sort would: cmpEndpoints is a total order. An error
// is a non-finite number, which the JSON form cannot carry.
func (s *Session) refreshLive() error {
	lr := s.live
	if lr == nil {
		lr = &liveReport{marked: make([]bool, len(s.g.nodes))}
		for i := range lr.marked {
			lr.marked[i] = true
		}
		s.live = lr
	}
	var fresh []EndpointSlack
	changed := false
	for i, m := range lr.marked {
		if !m {
			continue
		}
		changed = true
		st := &s.state[i]
		for j, name := range st.names {
			if req, ok := s.g.endpointRequired(i, name, s.required); ok {
				fresh = append(fresh, s.g.endpoint(i, name, st.out[j], req))
			}
		}
	}
	if !changed {
		return nil
	}
	fresh = sortEndpoints(fresh)
	old := lr.eps
	eps := make([]EndpointSlack, 0, len(old)+len(fresh))
	rows, text := lr.spareRows[:0], lr.spareText[:0]
	for a, b := 0, 0; a < len(old) || b < len(fresh); {
		if a < len(old) && lr.marked[old[a].net] {
			a++ // superseded by the net's fresh endpoints
			continue
		}
		if b == len(fresh) || a < len(old) && cmpEndpoints(&old[a], &fresh[b]) < 0 {
			t := lr.rows[a]
			from, n := int(t.off), int(t.min)+int(t.max)+int(t.slack)
			t.off = uint32(len(text))
			text = append(text, lr.text[from:from+n]...)
			eps, rows = append(eps, old[a]), append(rows, t)
			a++
			continue
		}
		var t epText
		var err error
		if text, t, err = appendEndpointText(text, &fresh[b]); err != nil {
			return err
		}
		eps, rows = append(eps, fresh[b]), append(rows, t)
		b++
	}
	clear(lr.marked)
	lr.eps = eps
	lr.rows, lr.spareRows = rows, lr.rows
	lr.text, lr.spareText = text, lr.text
	return nil
}

// AppendReportJSON appends the current report exactly as
// Report().AppendJSON(dst, depth) renders it, at the cost of what changed
// since the previous call: only the endpoints of nets an Apply changed are
// re-derived, merged into the kept order and have their numbers formatted.
// It also memoizes the Report, as Report does; its WNS/TNS come from
// Summary, which is bit-identical to a full assembly's. dst grows once, by
// the last body's length plus what the merge added since.
func (s *Session) AppendReportJSON(dst []byte, depth int) ([]byte, error) {
	if err := s.refreshLive(); err != nil {
		// A non-finite number: the full path renders the report and reports
		// the same error, and the next call starts over.
		s.live = nil
		return s.Report().AppendJSON(dst, depth)
	}
	lr := s.live
	if s.report == nil {
		wns, tns := s.Summary()
		s.report = s.g.assemble(s.state, s.th, s.k, lr.eps, wns, tns)
	}
	hint := s.report.jsonSizeHint()
	if lr.size > 0 {
		// The last body, what the merges added since, and 1/32 to spare for
		// the paths, which every read renders afresh.
		hint = lr.size + lr.size/32 + max(0, len(lr.text)-lr.sizeText) + epJSONHint*max(0, len(lr.eps)-lr.sizeEps)
	}
	out, err := s.report.appendJSON(dst, true, depth, lr.rows, lr.text, hint)
	if err == nil {
		lr.size, lr.sizeText, lr.sizeEps = len(out)-len(dst), len(lr.text), len(lr.eps)
	}
	return out, err
}

// liveDeck is the state AppendDeck keeps between snapshots: the last deck
// and where each net's section lies in it.
type liveDeck struct {
	text []byte
	secs []deckSection
}

// deckSection locates one net's .net section in liveDeck.text and names the
// tree state it renders: the EditTree and its generation, or a nil tree for
// the graph's own (immutable) tree. Holding the tree keeps its address from
// being reused, so the pair identifies the state.
type deckSection struct {
	tree     *incr.EditTree
	gen      uint64
	off, end int
}

// AppendDeck appends the current design exactly as
// netlist.WriteDesign(Design()) renders it, materializing only the nets
// whose EditTree changed since the previous call; the header, the stage and
// require cards and every other net's section are copied from the kept
// deck. A net no edit has reached renders the graph's tree as is.
func (s *Session) AppendDeck(dst []byte) ([]byte, error) {
	ld, d := s.deck, s.g.design
	fresh := ld == nil
	start := len(dst)
	var tail int
	if fresh {
		ld = &liveDeck{secs: make([]deckSection, len(s.trees))}
		dst = netlist.AppendDesignHeader(dst, d.Name, len(d.Nets), len(d.Stages))
	} else {
		dst = append(slices.Grow(dst, len(ld.text)), ld.text[:ld.secs[0].off]...)
		tail = ld.secs[len(ld.secs)-1].end
	}
	for i, et := range s.trees {
		sec := &ld.secs[i]
		off := len(dst) - start
		var gen uint64
		if et != nil {
			gen = et.Gen()
		}
		switch {
		case !fresh && sec.tree == et && sec.gen == gen:
			dst = append(dst, ld.text[sec.off:sec.end]...)
		case et == nil:
			dst = netlist.AppendNet(dst, s.g.nodes[i].name, s.g.nodes[i].tree)
		default:
			t, _, err := et.Materialize()
			if err != nil {
				s.deck = nil // the sections are half updated
				return dst[:start], fmt.Errorf("timing: materialize net %q: %w", s.g.nodes[i].name, err)
			}
			dst = netlist.AppendNet(dst, s.g.nodes[i].name, t)
		}
		*sec = deckSection{tree: et, gen: gen, off: off, end: len(dst) - start}
	}
	if fresh {
		dst = netlist.AppendDesignTail(dst, d.Stages, d.Requires)
	} else {
		dst = append(dst, ld.text[tail:]...)
	}
	ld.text = append(ld.text[:0], dst[start:]...)
	s.deck = ld
	return dst, nil
}
