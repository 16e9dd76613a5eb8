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
//
// Parsing costs one pass over each line: the scanner cuts an ASCII line's
// fields while it looks for the line's end. Node names are interned to
// dense ids, so the tree's columns are appended directly, in breadth-first
// order from the input, and handed to rctree.FromInterned: the tree builds
// its name index only if something calls Lookup. Element names of the
// common R7/c12 form are checked for duplicates in per-letter arrays; any
// other name in a map of upper-cased names.
package netlist

import (
	"fmt"
	"math"
	"slices"
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
// a deck is reset and reused across the nets of a design, and so is the
// scratch its build works in.
type deck struct {
	index    map[string]int32 // node name -> id
	names    []string         // id -> node name
	caps     []float64        // id -> summed capacitance to ground
	capLine  []int            // id -> line of its first capacitor, 0 if none
	capNodes []int32          // nodes carrying capacitance, by first capacitor line
	edges    []edge
	input    string
	outputs  []string
	outLine  []int // line of each .output name's card
	// numbered[k][n] is the line defining element n of letter "RCU"[k], 0
	// if none: the names numberedElement accepts. seen maps every other
	// element name, upper-cased, to its line.
	numbered [3][]int
	seen     map[string]int

	// build's scratch, sized per net.
	off, adj, queue []int32
	ids             []rctree.NodeID
	used, isOut     []bool
}

func newDeck() *deck {
	return &deck{index: map[string]int32{}, seen: map[string]int{}}
}

func (d *deck) reset() {
	clear(d.index)
	clear(d.seen)
	for k := range d.numbered {
		d.numbered[k] = d.numbered[k][:0]
	}
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

// Byte classes of a deck line: a field runs over bField and bStar bytes,
// and a '*' that would start a line's first field starts a comment.
const (
	bField = iota
	bStar
	bBlank // ASCII white space other than '\n'
	bEOL   // '\n'
	bSemi  // ';', a trailing comment
	bWide  // >= 0x80, which may be Unicode white space
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = bWide
		case c == '\n':
			t[c] = bEOL
		case c == ' ' || '\t' <= c && c <= '\r':
			t[c] = bBlank
		case c == ';':
			t[c] = bSemi
		case c == '*':
			t[c] = bStar
		}
	}
	return t
}()

// next returns the fields of the next card, or nil at the end of the deck.
// One pass over an ASCII line finds its end and cuts its fields, as
// strings.Fields would cut the line up to its ';' once trimmed; a line with
// a byte >= 0x80 before its ';' goes to unicodeLine. The slice is only
// valid until the following call.
func (s *scanner) next() []string {
	src := s.src
	for s.pos >= 0 {
		s.start = s.pos
		s.no++
		f, i := s.buf[:0], s.pos
	line:
		for i < len(src) {
			switch k := byteClass[src[i]]; {
			case k == bBlank:
				i++
			case k == bField || k == bStar && len(f) > 0:
				j := i + 1
				for j < len(src) && byteClass[src[j]] <= bStar {
					j++
				}
				f, i = append(f, src[i:j]), j
			case k == bWide:
				f, i = s.unicodeLine(), s.lineEnd(s.start)
				break line
			case k == bEOL:
				break line
			default: // ';' or a leading '*': a comment to the end of the line
				i = s.lineEnd(i)
				break line
			}
		}
		if s.pos = i + 1; i == len(src) {
			s.pos = -1
		}
		if len(f) > 0 {
			return f
		}
	}
	return nil
}

// lineEnd returns the index of the first '\n' at or after i, or len(src).
func (s *scanner) lineEnd(i int) int {
	if j := strings.IndexByte(s.src[i:], '\n'); j >= 0 {
		return i + j
	}
	return len(s.src)
}

// unicodeLine returns the fields of the line at s.start, which holds a
// non-ASCII byte before its ';': the line up to that ';' is trimmed of
// Unicode white space and split by strings.Fields, and none if it is blank
// or a '*' comment.
func (s *scanner) unicodeLine() []string {
	line := s.src[s.start:s.lineEnd(s.start)]
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '*' {
		return nil
	}
	return strings.Fields(line)
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
	// A directive leads with '.', which no other rune upper-cases to.
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
	}
	return fmt.Errorf("netlist: line %d: unrecognized card %q", no, fields[0])
}

// claim records element name as defined at line no, rejecting a duplicate:
// a name that upper-cases like an earlier one.
func (d *deck) claim(name string, no int) error {
	var prev int
	if k, n, ok := numberedElement(name); ok {
		lines := d.numbered[k]
		if m := len(lines); n >= m {
			lines = slices.Grow(lines, n+1-m)[:n+1]
			clear(lines[m:])
			d.numbered[k] = lines
		}
		if prev = lines[n]; prev == 0 {
			lines[n] = no
		}
	} else {
		key := strings.ToUpper(name)
		if prev = d.seen[key]; prev == 0 {
			d.seen[key] = no
		}
	}
	if prev != 0 {
		return fmt.Errorf("netlist: line %d: element %s already defined at line %d", no, name, prev)
	}
	return nil
}

// numberedElement reports whether name is an R, C or U in either case
// followed by a decimal number below 10000 with no leading zero, and if so
// which letter (0, 1, 2 for R, C, U) and number. Only "R7" and "r7"
// upper-case to "R7", and no other name upper-cases to such a name (no
// non-ASCII rune upper-cases to an ASCII letter or digit but I and S), so
// these names can skip the upper-cased map.
func numberedElement(name string) (k, n int, ok bool) {
	digits := name[1:]
	if len(digits) == 0 || len(digits) > 4 || digits[0] == '0' {
		return 0, 0, false
	}
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		n = 10*n + int(c-'0')
	}
	switch name[0] | 0x20 {
	case 'r':
		return 0, n, true
	case 'c':
		return 1, n, true
	case 'u':
		return 2, n, true
	}
	return 0, 0, false
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

// isGround reports whether node names ground. No non-ASCII rune folds to
// g, n or d, so only a 3-byte name can fold to "gnd".
func isGround(node string) bool {
	return node == "0" || len(node) == 3 && strings.EqualFold(node, "gnd")
}

// build orients the element graph from the input node and appends the
// tree's columns in breadth-first order, parent before child. It applies
// rctree.Builder's element checks with the same error text, and the
// interned node names are unique, so the columns go to rctree.FromInterned
// without a name index.
func (d *deck) build() (*rctree.Tree, error) {
	input := d.input
	if input == "" {
		input = "in"
	}
	if len(d.edges) == 0 && len(d.capNodes) == 0 {
		return nil, fmt.Errorf("netlist: deck has no elements")
	}
	// A deck of capacitors alone is a tree of the input node alone (e.g.
	// after a zero-resistance U card folded into the input), whose
	// response is an immediate step; a capacitor elsewhere fails the
	// connection check below. An input no card names is interned here and
	// touches no element.
	in := d.node(input)
	// CSR adjacency: the edges at node v are adj[off[v]:off[v+1]], in deck
	// order, so the BFS numbers nodes as the deck lists them.
	n := len(d.names)
	off := scratch(&d.off, n+1)
	clear(off)
	for _, e := range d.edges {
		off[e.a+1]++
		off[e.b+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	ids := scratch(&d.ids, n) // fill cursors first, then tree ids
	for v := range ids {
		ids[v] = rctree.NodeID(off[v])
	}
	adj := scratch(&d.adj, 2*len(d.edges))
	for i, e := range d.edges {
		adj[ids[e.a]] = int32(i)
		ids[e.a]++
		adj[ids[e.b]] = int32(i)
		ids[e.b]++
	}
	used, isOut := scratch(&d.used, len(d.edges)), scratch(&d.isOut, n)
	clear(used)
	clear(isOut)
	if len(d.edges) > 0 && off[in] == off[in+1] {
		return nil, fmt.Errorf("netlist: input node %q touches no element", input)
	}

	// The tree has at most n nodes: one slab holds its three float columns.
	f := make([]float64, 3*n)
	c := rctree.Columns{
		Parent: make([]int32, 0, n), Kind: make([]uint8, 0, n),
		EdgeR: f[:0:n], EdgeC: f[n : n : 2*n], NodeC: f[2*n : 2*n : 3*n],
		Names: make([]string, 0, n), Outputs: make([]rctree.NodeID, 0, len(d.outputs)),
	}
	push := func(v int32, parent rctree.NodeID, kind rctree.EdgeKind, r, cap float64) rctree.NodeID {
		c.Parent = append(c.Parent, int32(parent))
		c.Kind = append(c.Kind, uint8(kind))
		c.EdgeR, c.EdgeC, c.NodeC = append(c.EdgeR, r), append(c.EdgeC, cap), append(c.NodeC, 0)
		c.Names = append(c.Names, d.names[v])
		return rctree.NodeID(len(c.Parent) - 1)
	}
	// As in rctree.Builder, an element it refuses leaves its far node at
	// the root, and the refusals are reported together, sorted, once every
	// netlist check has passed.
	var refused []string
	for v := range ids {
		ids[v] = -1 // not reached yet
	}
	ids[in] = push(in, -1, rctree.EdgeNone, 0, 0)
	queue := append(d.queue[:0], in)
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
			switch {
			case !e.isLine && e.r <= 0:
				refused = append(refused, fmt.Sprintf("rctree: resistor %q must have R > 0, got %g", d.names[far], e.r))
				ids[far] = rctree.Root
			case e.isLine && e.r == 0 && e.c == 0:
				refused = append(refused, fmt.Sprintf("rctree: line %q has R=0 and C=0", d.names[far]))
				ids[far] = rctree.Root
			case e.isLine && e.r == 0:
				// A zero-resistance line is a lumped capacitor at its parent.
				c.NodeC[ids[v]] += e.c
				ids[far] = ids[v]
			case e.isLine && e.c != 0:
				ids[far] = push(far, ids[v], rctree.EdgeLine, e.r, e.c)
			default:
				ids[far] = push(far, ids[v], rctree.EdgeResistor, e.r, 0)
			}
			queue = append(queue, far)
		}
	}
	d.queue = queue
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
		c.NodeC[ids[v]] += d.caps[v]
	}
	for i, out := range d.outputs {
		v, ok := d.index[out]
		if !ok || ids[v] < 0 {
			return nil, fmt.Errorf("netlist: .output node %q does not exist", out)
		}
		// A zero-resistance U card folds its far node into the near one, so
		// the tree has no node of that name to time or to tap.
		id := ids[v]
		if into := c.Names[id]; into != out {
			return nil, fmt.Errorf("netlist: line %d: .output node %q is folded into node %q by a zero-resistance line; name %q instead", d.outLine[i], out, into, into)
		}
		if isOut[id] {
			refused = append(refused, fmt.Sprintf("rctree: node %q marked as output twice", out))
			continue
		}
		isOut[id] = true
		c.Outputs = append(c.Outputs, id)
	}
	if len(refused) > 0 {
		sort.Strings(refused)
		return nil, fmt.Errorf("rctree: invalid tree: %s", strings.Join(refused, "; "))
	}
	return rctree.FromInterned(c)
}

// scratch resizes *s to n elements, reusing its array when that is large
// enough, and returns it. The elements keep whatever they held.
func scratch[T any](s *[]T, n int) []T {
	*s = slices.Grow((*s)[:0], n)[:n]
	return *s
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
