// Package netlist reads and writes RC trees in a small SPICE-like deck
// format, so networks can live in files rather than code:
//
//   - Figure 7 of the paper
//     .input in
//     R1 in  n1 15
//     C1 n1  0  2
//     R2 n1  b  8
//     C2 b   0  7
//     U1 n1  n2 3 4    ; uniform RC line: R=3, C=4
//     C3 n2  0  9
//     .output n2
//
// Cards: Rxxx a b value — lumped resistor; Cxxx a 0 value — capacitor to
// ground; Uxxx a b Rvalue Cvalue — distributed uniform RC line. Values
// accept SPICE engineering suffixes (k, meg, m, u, n, p, f). Comments start
// with '*' (whole line) or ';' (trailing). Elements may appear in any order;
// the parser orients the tree from the input node.
package netlist

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/rctree"
)

// edge is a two-terminal element between tree nodes, pre-orientation.
type edge struct {
	name   string
	a, b   int32 // node ids
	r, c   float64
	isLine bool
	line   int
}

// deck collects the cards of one net. Node names are interned to dense
// int32 ids in order of first appearance, so per-node data lives in slices;
// a deck is reset and reused across the nets of a design.
type deck struct {
	index    map[string]int32 // node name -> id
	names    []string         // id -> node name
	caps     []float64        // id -> summed capacitance to ground
	capLine  []int            // id -> line of its first capacitor, 0 if none
	capNodes []int32          // nodes carrying capacitance, by first capacitor line
	edges    []edge
	input    string
	outputs  []string
	outLine  []int          // line of each .output name's card
	seen     map[string]int // element name -> source line
}

func newDeck() *deck {
	return &deck{index: map[string]int32{}, seen: map[string]int{}}
}

func (d *deck) reset() {
	clear(d.index)
	clear(d.seen)
	d.names, d.caps, d.capLine, d.capNodes = d.names[:0], d.caps[:0], d.capLine[:0], d.capNodes[:0]
	d.edges, d.outputs, d.outLine, d.input = d.edges[:0], d.outputs[:0], d.outLine[:0], ""
}

// node interns a node name.
func (d *deck) node(name string) int32 {
	if id, ok := d.index[name]; ok {
		return id
	}
	id := int32(len(d.names))
	d.index[name] = id
	d.names = append(d.names, name)
	d.caps = append(d.caps, 0)
	d.capLine = append(d.capLine, 0)
	return id
}

// scanner walks a deck one card at a time, numbering lines as in the
// source and skipping blank lines and comments.
type scanner struct {
	src   string
	pos   int // start of the next line, -1 past the last
	no    int // number of the line of the current card
	start int // start of the line of the current card
	buf   [8]string
}

// next returns the fields of the next card, or nil at the end of the deck.
// The slice is only valid until the following call.
func (s *scanner) next() []string {
	for s.pos >= 0 {
		s.start = s.pos
		line := s.src[s.pos:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			s.pos += i + 1
		} else {
			s.pos = -1
		}
		s.no++
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '*' {
			continue
		}
		return s.fields(line)
	}
	return nil
}

// skipBody advances past the lines that cannot hold a directive: blank
// lines and lines whose first non-blank byte is ASCII and not '.', such as
// element cards and comments. It stops at a line that next must read:
// one led by '.' or by a non-ASCII byte, which strings.TrimSpace may strip.
func (s *scanner) skipBody() {
	for s.pos >= 0 {
		i := s.pos
		for i < len(s.src) && isBlank(s.src[i]) {
			i++
		}
		if i < len(s.src) && (s.src[i] == '.' || s.src[i] >= utf8.RuneSelf) {
			return
		}
		s.no++
		if j := strings.IndexByte(s.src[i:], '\n'); j >= 0 {
			s.pos = i + j + 1
		} else {
			s.pos = -1
		}
	}
}

// isBlank reports whether c is ASCII white space other than '\n'.
func isBlank(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}

// fields splits a trimmed, non-empty line like strings.Fields, without
// allocating when the line is ASCII.
func (s *scanner) fields(line string) []string {
	f := s.buf[:0]
	start := -1 // start of the field being scanned, -1 between fields
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= utf8.RuneSelf:
			return strings.Fields(line)
		case c == ' ' || '\t' <= c && c <= '\r': // \t \n \v \f \r
			if start >= 0 {
				f = append(f, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		f = append(f, line[start:])
	}
	return f
}

// isDirective reports whether field upper-cases (as by strings.ToUpper) to
// the directive want.
func isDirective(field, want string) bool {
	if len(field) == len(want) {
		return strings.EqualFold(field, want)
	}
	// Only U+0131 and U+017F upper-case to ASCII (I and S), shrinking by a
	// byte, so a longer field can match only when it is not ASCII.
	return len(field) > len(want) && !isASCII(field) && strings.ToUpper(field) == want
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Parse reads a deck and returns the RC tree it describes.
func Parse(src string) (*rctree.Tree, error) {
	d := newDeck()
	if err := d.cards(&scanner{src: src}); err != nil {
		return nil, err
	}
	return d.build()
}

// cards adds every card s reads, stopping at the first error.
func (d *deck) cards(s *scanner) error {
	for f := s.next(); f != nil; f = s.next() {
		if err := d.card(f, s.no); err != nil {
			return err
		}
	}
	return nil
}

// card adds one card, given as its fields, from line no of the deck.
func (d *deck) card(fields []string, no int) error {
	head := fields[0]
	switch {
	case isDirective(head, ".INPUT"):
		if len(fields) != 2 {
			return fmt.Errorf("netlist: line %d: .input takes exactly one node", no)
		}
		if d.input != "" {
			return fmt.Errorf("netlist: line %d: duplicate .input (already %q)", no, d.input)
		}
		d.input = fields[1]
		return nil
	case isDirective(head, ".OUTPUT"):
		if len(fields) < 2 {
			return fmt.Errorf("netlist: line %d: .output needs at least one node", no)
		}
		d.outputs = append(d.outputs, fields[1:]...)
		for range fields[1:] {
			d.outLine = append(d.outLine, no)
		}
		return nil
	case isDirective(head, ".END"):
		return nil
	// No non-ASCII rune upper-cases to R, C or U, so the first byte decides.
	case head[0]|0x20 == 'r':
		if len(fields) != 4 {
			return fmt.Errorf("netlist: line %d: resistor card needs 'Rname a b value'", no)
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		return d.addEdge(fields, v, 0, false, no)
	case head[0]|0x20 == 'c':
		if len(fields) != 4 {
			return fmt.Errorf("netlist: line %d: capacitor card needs 'Cname node 0 value'", no)
		}
		node, gnd := fields[1], fields[2]
		if isGround(node) {
			node, gnd = gnd, node
		}
		if !isGround(gnd) {
			return fmt.Errorf("netlist: line %d: capacitor %s must connect to ground (node 0)", no, fields[0])
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		if v < 0 {
			return fmt.Errorf("netlist: line %d: negative capacitance %g", no, v)
		}
		if err := d.claim(fields[0], no); err != nil {
			return err
		}
		id := d.node(node)
		d.caps[id] += v
		if d.capLine[id] == 0 {
			d.capLine[id] = no
			d.capNodes = append(d.capNodes, id)
		}
		return nil
	case head[0]|0x20 == 'u':
		if len(fields) != 5 {
			return fmt.Errorf("netlist: line %d: line card needs 'Uname a b Rvalue Cvalue'", no)
		}
		r, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		c, err := ParseValue(fields[4])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		return d.addEdge(fields, r, c, true, no)
	}
	return fmt.Errorf("netlist: line %d: unrecognized card %q", no, fields[0])
}

// claim records element name as defined at line no, rejecting a duplicate.
func (d *deck) claim(name string, no int) error {
	key := strings.ToUpper(name)
	if prev, dup := d.seen[key]; dup {
		return fmt.Errorf("netlist: line %d: element %s already defined at line %d", no, name, prev)
	}
	d.seen[key] = no
	return nil
}

// addEdge adds the element of an R or U card: fields are name, a, b, ...
func (d *deck) addEdge(fields []string, r, c float64, isLine bool, no int) error {
	name, a, b := fields[0], fields[1], fields[2]
	if err := d.claim(name, no); err != nil {
		return err
	}
	if isGround(a) || isGround(b) {
		return fmt.Errorf("netlist: line %d: element %s connects to ground; RC trees have no resistor to ground", no, name)
	}
	if a == b {
		return fmt.Errorf("netlist: line %d: element %s is a self-loop on %q", no, name, a)
	}
	if r < 0 || c < 0 {
		return fmt.Errorf("netlist: line %d: element %s has a negative value", no, name)
	}
	d.edges = append(d.edges, edge{name: name, a: d.node(a), b: d.node(b), r: r, c: c, isLine: isLine, line: no})
	return nil
}

func isGround(node string) bool {
	return node == "0" || strings.EqualFold(node, "gnd")
}

// build orients the element graph from the input node and assembles the
// tree in breadth-first order (the builder requires parent-before-child).
func (d *deck) build() (*rctree.Tree, error) {
	input := d.input
	if input == "" {
		input = "in"
	}
	if len(d.edges) == 0 {
		// A deck can legitimately degenerate to capacitance at the driven
		// input alone (e.g. a zero-resistance U card folded into its
		// parent); the response is then an immediate step.
		return d.buildCapacitorOnly(input)
	}
	// CSR adjacency: the edges at node v are adj[off[v]:off[v+1]], in deck
	// order, so the BFS numbers nodes as the deck lists them.
	n := len(d.names)
	off := make([]int32, n+1)
	for _, e := range d.edges {
		off[e.a+1]++
		off[e.b+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	ids := make([]rctree.NodeID, n) // fill cursors first, then tree ids
	for v := range ids {
		ids[v] = rctree.NodeID(off[v])
	}
	adj := make([]int32, 2*len(d.edges))
	for i, e := range d.edges {
		adj[ids[e.a]] = int32(i)
		ids[e.a]++
		adj[ids[e.b]] = int32(i)
		ids[e.b]++
	}
	in, ok := d.index[input]
	if !ok || off[in] == off[in+1] {
		return nil, fmt.Errorf("netlist: input node %q touches no element", input)
	}

	b := rctree.NewBuilderSize(input, n, len(d.outputs))
	for v := range ids {
		ids[v] = -1 // not reached yet
	}
	ids[in] = rctree.Root
	used := make([]bool, len(d.edges))
	queue := make([]int32, 1, n)
	queue[0] = in
	for h := 0; h < len(queue); h++ {
		v := queue[h]
		for _, ei := range adj[off[v]:off[v+1]] {
			if used[ei] {
				continue
			}
			e := &d.edges[ei]
			used[ei] = true
			far := e.b
			if far == v {
				far = e.a
			}
			if ids[far] >= 0 {
				return nil, fmt.Errorf("netlist: line %d: element %s closes a resistive loop at node %q; the network is not a tree", e.line, e.name, d.names[far])
			}
			if e.isLine {
				ids[far] = b.Line(ids[v], d.names[far], e.r, e.c)
			} else {
				ids[far] = b.Resistor(ids[v], d.names[far], e.r)
			}
			queue = append(queue, far)
		}
	}
	for i, u := range used {
		if !u {
			e := &d.edges[i]
			return nil, fmt.Errorf("netlist: line %d: element %s (%s-%s) is disconnected from the input", e.line, e.name, d.names[e.a], d.names[e.b])
		}
	}
	for _, v := range d.capNodes {
		if ids[v] < 0 {
			return nil, fmt.Errorf("netlist: line %d: capacitor node %q is not connected to the tree", d.capLine[v], d.names[v])
		}
		b.Capacitor(ids[v], d.caps[v])
	}
	for i, out := range d.outputs {
		v, ok := d.index[out]
		if !ok || ids[v] < 0 {
			return nil, fmt.Errorf("netlist: .output node %q does not exist", out)
		}
		// A zero-resistance U card folds its far node into the near one, so
		// the tree has no node of that name to time or to tap.
		if into := b.Name(ids[v]); into != out {
			return nil, fmt.Errorf("netlist: line %d: .output node %q is folded into node %q by a zero-resistance line; name %q instead", d.outLine[i], out, into, into)
		}
		b.Output(ids[v])
	}
	return b.Build()
}

// buildCapacitorOnly handles decks whose only elements are capacitors: they
// must all sit at the input node (anything else is floating), and the
// result is the single-node tree.
func (d *deck) buildCapacitorOnly(input string) (*rctree.Tree, error) {
	if len(d.capNodes) == 0 {
		return nil, fmt.Errorf("netlist: deck has no elements")
	}
	b := rctree.NewBuilder(input)
	for _, v := range d.capNodes {
		if d.names[v] != input {
			return nil, fmt.Errorf("netlist: line %d: capacitor node %q is not connected to the tree", d.capLine[v], d.names[v])
		}
		b.Capacitor(rctree.Root, d.caps[v])
	}
	for _, out := range d.outputs {
		if out != input {
			return nil, fmt.Errorf("netlist: .output node %q does not exist", out)
		}
		b.Output(rctree.Root)
	}
	return b.Build()
}

// ParseValue parses a SPICE-style number with optional engineering suffix:
// f=1e-15, p=1e-12, n=1e-9, u=1e-6, m=1e-3, k=1e3, meg=1e6, g=1e9.
func ParseValue(s string) (float64, error) {
	low := strings.TrimSpace(s)
	mult := 1.0
	// The suffixes are letters: a value ending in a digit has none, and
	// strconv.ParseFloat is case-insensitive by itself.
	if n := len(low); n == 0 || low[n-1] < '0' || low[n-1] > '9' {
		low = strings.ToLower(low)
		switch {
		case strings.HasSuffix(low, "meg"):
			mult, low = 1e6, strings.TrimSuffix(low, "meg")
		case strings.HasSuffix(low, "f"):
			mult, low = 1e-15, strings.TrimSuffix(low, "f")
		case strings.HasSuffix(low, "p"):
			mult, low = 1e-12, strings.TrimSuffix(low, "p")
		case strings.HasSuffix(low, "n"):
			mult, low = 1e-9, strings.TrimSuffix(low, "n")
		case strings.HasSuffix(low, "u"):
			mult, low = 1e-6, strings.TrimSuffix(low, "u")
		case strings.HasSuffix(low, "m"):
			mult, low = 1e-3, strings.TrimSuffix(low, "m")
		case strings.HasSuffix(low, "k"):
			mult, low = 1e3, strings.TrimSuffix(low, "k")
		case strings.HasSuffix(low, "g"):
			mult, low = 1e9, strings.TrimSuffix(low, "g")
		}
	}
	v, err := strconv.ParseFloat(low, 64)
	if err != nil {
		return 0, fmt.Errorf("netlist: bad value %q", s)
	}
	v *= mult
	// ParseFloat accepts "infinity" and huge exponents; a non-finite element
	// value can never round-trip through Write, so reject it here.
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("netlist: non-finite value %q", s)
	}
	return v, nil
}

// Write renders a tree back into deck form. Values print in plain notation;
// the result round-trips through Parse.
func Write(t *rctree.Tree) string {
	return string(appendTree(make([]byte, 0, treeSizeHint(t)), t))
}

// treeSizeHint estimates the bytes of a tree's deck: a card or two per
// node.
func treeSizeHint(t *rctree.Tree) int { return 64 + 48*t.NumNodes() }

func appendTree(b []byte, t *rctree.Tree) []byte {
	b = append(b, "* RC tree: "...)
	b = strconv.AppendInt(b, int64(t.NumNodes()), 10)
	b = append(b, " nodes\n.input "...)
	b = append(b, t.Name(rctree.Root)...)
	b = append(b, '\n')
	rCount, uCount, cCount := 0, 0, 0
	for i := range t.NumNodes() {
		id := rctree.NodeID(i)
		if id != rctree.Root {
			kind, r, c := t.Edge(id)
			parent := t.Name(t.Parent(id))
			switch kind {
			case rctree.EdgeResistor:
				rCount++
				b = appendVal(appendCard(b, 'R', rCount, parent, t.Name(id)), r)
				b = append(b, '\n')
			case rctree.EdgeLine:
				uCount++
				b = appendVal(appendVal(appendCard(b, 'U', uCount, parent, t.Name(id)), r), c)
				b = append(b, '\n')
			}
		}
		if c := t.NodeCap(id); c > 0 {
			cCount++
			b = appendVal(appendCard(b, 'C', cCount, t.Name(id), "0"), c)
			b = append(b, '\n')
		}
	}
	outs := make([]string, 0, len(t.Outputs()))
	for _, o := range t.Outputs() {
		outs = append(outs, t.Name(o))
	}
	sort.Strings(outs)
	for _, o := range outs {
		b = append(b, ".output "...)
		b = append(b, o...)
		b = append(b, '\n')
	}
	return append(b, ".end\n"...)
}

// appendCard appends the element name and the two nodes of a card.
func appendCard(b []byte, letter byte, n int, a, c string) []byte {
	return appendNodes(strconv.AppendInt(append(b, letter), int64(n), 10), a, c)
}

// appendNodes appends two space-led fields.
func appendNodes(b []byte, a, c string) []byte {
	b = append(append(b, ' '), a...)
	return append(append(b, ' '), c...)
}

// appendVal appends a space and v in the deck's value notation.
func appendVal(b []byte, v float64) []byte {
	return strconv.AppendFloat(append(b, ' '), v, 'g', -1, 64)
}

func fmtVal(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
