package netlist

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/rctree"
)

// frozenSeeds are single-net decks on the edges of what the one-pass
// tokenizer, the numbered-element check and the interned build replaced:
// element names in both cases, with leading zeros, with a dotless i that
// upper-cases to I, and past the numbered cap; comments and separators
// inside and between fields; the element refusals the build reports in
// rctree.Builder's sorted form; and decks of capacitors alone.
var frozenSeeds = []string{
	"R1 in o 1\nr1 o p 1\nC1 p 0 1\n",
	"R1 in o 1\nR01 o p 1\nC1 p 0 1\nR0 p q 1\nr0 q s 1\n",
	"RI1 in o 1\nR\u01311 o p 1\nC1 p 0 1\n",
	"R9999 in o 1\nr9999 o p 1\nC1 p 0 1\n",
	"R10000 in o 1\nr10000 o p 1\nC1 p 0 1\n",
	"R123456789012345678901 in o 1\nC123456789012345678901 o 0 1\nc123456789012345678901 o 0 1\n",
	"U7 in o 1 1\nu7 o p 1 1\nC7 p 0 1\nc7 p 0 1\n",
	"R1 in o 1;R1 o p 1\nC1 o 0 1 ;\n*R1\n  *\tR1\nR2 o *p 1\nC2 *p 0 1\n.output *p\n",
	"R1 in o 1\nC1 o 0 1 ; \u00a0 R1\n* \u00e9\n\u00a0* \u00e9\n.output o\u0085\n",
	"R1 in o\x00 1\nC1 o\x00 0 1\x1f\n.output o\x00\n",
	"R1 in o\x00 1\nC1 o\x00 0 1\n.output o\x00\x7f o\x00\n",
	"R1 in a 0\nR2 a b -0\nU3 b c 0 0\nU4 c d 0 5\nC1 d 0 1\n.output in in\n",
	"R1 in a 1\nU2 a b 0 2\nC1 b 0 1\n.output b\n",
	"R1 in a 1\nU2 a b 0 2\nR3 b c 1\nC1 c 0 1\n.output c\n",
	"R1 in a 1\nC1 a 0 1\n.output a a\n",
	"U1 in a 1 0\nC1 a 0 1\n.output a\n",
	"C1 in 0 1\nc2 0 in 2\n.output in\n",
	"C1 in 0 1\n.output in in\n",
	"C1 in 0 1\n.output a\n",
	"C1 a 0 1\nC2 in 0 1\n.output in\n",
	".input a\nC1 b 0 1\n",
	"U1 in a 0 2\n.output in\n",
}

// FuzzParseMatchesFrozen asserts that Parse and ParseDesign accept and
// reject exactly what the frozen parser does, with byte-identical error
// text, and return the same trees: the same columns (floats bit for bit),
// children and outputs, and the same answer from Lookup and LookupOutput
// for every node name. Every input is also parsed as the body of a
// one-net design.
func FuzzParseMatchesFrozen(f *testing.F) {
	for _, s := range designSeeds() {
		f.Add(s)
	}
	for _, s := range append(frozenSeeds, separatorSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := Parse(src)
		want, wantErr := frozenParse(src)
		if diff := diffFrozen(tree, err, want, wantErr); diff != "" {
			t.Fatalf("Parse differs from the frozen parser: %s\ndeck:\n%q", diff, src)
		}
		for _, deck := range []string{src, ".net a\n" + src + "\n.endnet\n"} {
			d, err := ParseDesign(deck)
			want, wantErr := parseDesignSeq(deck)
			if errText(err) != errText(wantErr) {
				t.Fatalf("ParseDesign error differs from the frozen parser:\n got  %s\n want %s\ndeck:\n%q", errText(err), errText(wantErr), deck)
			}
			if err != nil {
				continue
			}
			if d.Name != want.Name || !slices.Equal(d.Stages, want.Stages) || !slices.Equal(d.Requires, want.Requires) || len(d.Nets) != len(want.Nets) {
				t.Fatalf("ParseDesign differs from the frozen parser outside its nets\ndeck:\n%q", deck)
			}
			for i, n := range d.Nets {
				if diff := diffFrozen(n.Tree, nil, want.Nets[i].Tree, nil); n.Name != want.Nets[i].Name || diff != "" {
					t.Fatalf("ParseDesign net %d (%q) differs from the frozen parser: %s\ndeck:\n%q", i, n.Name, diff, deck)
				}
			}
		}
	})
}

// diffFrozen describes the first difference between a parse and the
// frozen parser's, or returns "".
func diffFrozen(got *rctree.Tree, err error, want *rctree.Tree, wantErr error) string {
	if errText(err) != errText(wantErr) {
		return fmt.Sprintf("error %s, want %s", errText(err), errText(wantErr))
	}
	if err != nil {
		return ""
	}
	g, w := got.Columns(), want.Columns()
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if !slices.Equal(g.Parent, w.Parent) || !slices.Equal(g.Kind, w.Kind) || !slices.Equal(g.Names, w.Names) ||
		!bits(g.EdgeR, w.EdgeR) || !bits(g.EdgeC, w.EdgeC) || !bits(g.NodeC, w.NodeC) || !slices.Equal(g.Outputs, w.Outputs) {
		return fmt.Sprintf("columns %+v, want %+v", g, w)
	}
	for i := range want.NumNodes() {
		if a, b := got.Children(rctree.NodeID(i)), want.Children(rctree.NodeID(i)); !slices.Equal(a, b) {
			return fmt.Sprintf("node %d children %v, want %v", i, a, b)
		}
	}
	for _, name := range append(slices.Clone(w.Names), "", "0", "in", "\u0131n") {
		gid, gok := got.Lookup(name)
		wid, wok := want.Lookup(name)
		if gid != wid || gok != wok {
			return fmt.Sprintf("Lookup(%q) = %d, %v; want %d, %v", name, gid, gok, wid, wok)
		}
		_, gok = got.LookupOutput(name)
		_, wok = want.LookupOutput(name)
		if gok != wok {
			return fmt.Sprintf("LookupOutput(%q) ok = %v; want %v", name, gok, wok)
		}
	}
	return ""
}

// The frozen parser: the two-pass tokenizer (IndexByte, TrimSpace, then a
// field loop), the upper-cased element-name map and the rctree.Builder
// based build, as they stood before the one-pass tokenizer and the
// interned-columns build replaced them. It shares only isDirective and
// ParseValue with production, so a differential test against it sees a
// fault in the tokenizer, the duplicate-element check or the build.

// frozenParse is Parse on the frozen parser.
func frozenParse(src string) (*rctree.Tree, error) {
	d := newFrozenDeck()
	s := frozenScanner{src: src}
	for f := s.next(); f != nil; f = s.next() {
		if err := d.card(f, s.no); err != nil {
			return nil, err
		}
	}
	return d.build()
}

type frozenEdge struct {
	name   string
	a, b   int32
	r, c   float64
	isLine bool
	line   int
}

type frozenDeck struct {
	index    map[string]int32
	names    []string
	caps     []float64
	capLine  []int
	capNodes []int32
	edges    []frozenEdge
	input    string
	outputs  []string
	outLine  []int
	seen     map[string]int
}

func newFrozenDeck() *frozenDeck {
	return &frozenDeck{index: map[string]int32{}, seen: map[string]int{}}
}

func (d *frozenDeck) reset() {
	clear(d.index)
	clear(d.seen)
	d.names, d.caps, d.capLine, d.capNodes = d.names[:0], d.caps[:0], d.capLine[:0], d.capNodes[:0]
	d.edges, d.outputs, d.outLine, d.input = d.edges[:0], d.outputs[:0], d.outLine[:0], ""
}

func (d *frozenDeck) node(name string) int32 {
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

type frozenScanner struct {
	src   string
	pos   int
	no    int
	start int
	buf   [8]string
}

func (s *frozenScanner) next() []string {
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

func (s *frozenScanner) fields(line string) []string {
	f := s.buf[:0]
	start := -1
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= utf8.RuneSelf:
			return strings.Fields(line)
		case c == ' ' || '\t' <= c && c <= '\r':
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

func (d *frozenDeck) card(fields []string, no int) error {
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
		if frozenIsGround(node) {
			node, gnd = gnd, node
		}
		if !frozenIsGround(gnd) {
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

func (d *frozenDeck) claim(name string, no int) error {
	key := strings.ToUpper(name)
	if prev, dup := d.seen[key]; dup {
		return fmt.Errorf("netlist: line %d: element %s already defined at line %d", no, name, prev)
	}
	d.seen[key] = no
	return nil
}

func (d *frozenDeck) addEdge(fields []string, r, c float64, isLine bool, no int) error {
	name, a, b := fields[0], fields[1], fields[2]
	if err := d.claim(name, no); err != nil {
		return err
	}
	if frozenIsGround(a) || frozenIsGround(b) {
		return fmt.Errorf("netlist: line %d: element %s connects to ground; RC trees have no resistor to ground", no, name)
	}
	if a == b {
		return fmt.Errorf("netlist: line %d: element %s is a self-loop on %q", no, name, a)
	}
	if r < 0 || c < 0 {
		return fmt.Errorf("netlist: line %d: element %s has a negative value", no, name)
	}
	d.edges = append(d.edges, frozenEdge{name: name, a: d.node(a), b: d.node(b), r: r, c: c, isLine: isLine, line: no})
	return nil
}

func frozenIsGround(node string) bool {
	return node == "0" || strings.EqualFold(node, "gnd")
}

func (d *frozenDeck) build() (*rctree.Tree, error) {
	input := d.input
	if input == "" {
		input = "in"
	}
	if len(d.edges) == 0 {
		return d.buildCapacitorOnly(input)
	}
	n := len(d.names)
	off := make([]int32, n+1)
	for _, e := range d.edges {
		off[e.a+1]++
		off[e.b+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	ids := make([]rctree.NodeID, n)
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
		ids[v] = -1
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
		if into := b.Name(ids[v]); into != out {
			return nil, fmt.Errorf("netlist: line %d: .output node %q is folded into node %q by a zero-resistance line; name %q instead", d.outLine[i], out, into, into)
		}
		b.Output(ids[v])
	}
	return b.Build()
}

func (d *frozenDeck) buildCapacitorOnly(input string) (*rctree.Tree, error) {
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

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
