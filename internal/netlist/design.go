package netlist

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/rctree"
)

// Design is the multi-deck form of a chip: named nets (each an RC tree in
// the usual deck format) plus stage edges gluing them into a timing graph.
// A stage "output X of net A drives the input of net B through a gate with
// intrinsic delay d" is the abstraction of a logic stage: the gate's input
// threshold crossing at A/X launches a fresh step into B's driver d time
// units later. Requires pin down required arrival times at endpoints.
//
// The deck grammar wraps each net in .net/.endnet and lists stages and
// requirements at top level:
//
//	.design demo
//	.net stage1
//	.input in
//	R1 in o 10
//	C1 o 0 5
//	.output o
//	.endnet
//	.net stage2
//	...
//	.endnet
//	.stage stage1 o stage2 3.5    ; A/X -> B, gate intrinsic delay 3.5
//	.require stage2 o 100         ; required arrival at endpoint stage2/o
//	.end
//
// Everything between .net and .endnet is an ordinary single-net deck and is
// parsed by Parse; stage delays and require times accept SPICE suffixes.
type Design struct {
	// Name is the .design label, "" if absent.
	Name string
	// Nets holds the nets in declaration order.
	Nets []DesignNet
	// Stages holds the gate edges in declaration order.
	Stages []Stage
	// Requires holds the endpoint timing requirements in declaration order.
	Requires []Require
}

// DesignNet is one named RC tree of a Design.
type DesignNet struct {
	Name string
	Tree *rctree.Tree
}

// Stage is one gate edge: the named output of FromNet drives the input of
// ToNet through a gate with intrinsic delay Delay (same time units as the
// nets' RC products).
type Stage struct {
	FromNet    string
	FromOutput string
	ToNet      string
	Delay      float64
}

// Require is a required arrival time at one endpoint (net/output pair).
type Require struct {
	Net    string
	Output string
	Time   float64
}

// Net returns the named net, or nil.
func (d *Design) Net(name string) *DesignNet {
	for i := range d.Nets {
		if d.Nets[i].Name == name {
			return &d.Nets[i]
		}
	}
	return nil
}

// ParseDesign reads a multi-net design deck in two phases. A sequential
// pass reads the top-level cards and cuts out each net's section between
// .net and .endnet without tokenizing its element cards; then
// min(GOMAXPROCS, nets) workers parse the sections, each reusing one deck
// (interning map, duplicate-element tables and build scratch) across the
// nets it takes, so a net allocates little beyond its tree's columns, and
// no tree gets a name index until its first Lookup. The error returned is
// the first in deck order, with the same text a one-pass parse would give.
// Every stage and require is validated against the declared nets and their
// designated outputs, so a returned Design is structurally sound (cycles
// are only diagnosed when a timing graph is built from it).
func ParseDesign(src string) (*Design, error) {
	d := &Design{}
	c := deckCut{index: map[string]int{}}
	cutErr := c.read(d, src)
	parseSections(c.nets)
	// The pass stops at its first error, so every section lies before it.
	for _, sec := range c.nets {
		if sec.err != nil {
			return nil, fmt.Errorf("netlist: design net %q (line %d): %w", sec.name, sec.line, sec.err)
		}
	}
	if cutErr != nil {
		return nil, cutErr
	}
	if len(c.nets) == 0 {
		return nil, fmt.Errorf("netlist: design has no nets")
	}
	d.Nets = make([]DesignNet, len(c.nets))
	for i, sec := range c.nets {
		d.Nets[i] = DesignNet{Name: sec.name, Tree: sec.tree}
	}
	if err := d.validate(c.index); err != nil {
		return nil, err
	}
	return d, nil
}

// netSection is one net of a design deck: the lines between its .net card
// and its .endnet, the body starting on line line+1.
type netSection struct {
	name string
	line int // line of the .net card
	body string
	// open marks a section cut off by a nested .net or the end of the deck:
	// its cards are parsed, but no tree is built.
	open bool
	tree *rctree.Tree
	err  error
}

// deckCut is what ParseDesign's sequential pass cuts out of a deck: the net
// sections in deck order and each one's index by name.
type deckCut struct {
	nets  []netSection
	index map[string]int
}

// read is ParseDesign's sequential pass. It fills d's name, stages and
// requires and cuts out the net sections, up to the first error, which it
// returns.
func (c *deckCut) read(d *Design, src string) error {
	s := scanner{src: src}
	for fields := s.next(); fields != nil; fields = s.next() {
		no, head := s.no, fields[0]
		switch {
		case isDirective(head, ".DESIGN"):
			if len(fields) != 2 {
				return fmt.Errorf("netlist: line %d: .design takes exactly one name", no)
			}
			if d.Name != "" {
				return fmt.Errorf("netlist: line %d: duplicate .design (already %q)", no, d.Name)
			}
			d.Name = fields[1]
		case isDirective(head, ".NET"):
			if len(fields) != 2 {
				return fmt.Errorf("netlist: line %d: .net takes exactly one name", no)
			}
			if prev, dup := c.index[fields[1]]; dup {
				return fmt.Errorf("netlist: line %d: net %q already defined at line %d", no, fields[1], c.nets[prev].line)
			}
			c.index[fields[1]] = len(c.nets)
			c.nets = append(c.nets, netSection{name: fields[1], line: no})
			if err := s.cutNet(&c.nets[len(c.nets)-1]); err != nil {
				return err
			}
		case isDirective(head, ".ENDNET"):
			return fmt.Errorf("netlist: line %d: .endnet without .net", no)
		case isDirective(head, ".STAGE"):
			if len(fields) != 5 {
				return fmt.Errorf("netlist: line %d: stage card needs '.stage fromNet output toNet delay'", no)
			}
			delay, err := ParseValue(fields[4])
			if err != nil {
				return fmt.Errorf("netlist: line %d: %w", no, err)
			}
			if delay < 0 {
				return fmt.Errorf("netlist: line %d: negative stage delay %g", no, delay)
			}
			d.Stages = append(d.Stages, Stage{
				FromNet: fields[1], FromOutput: fields[2], ToNet: fields[3], Delay: delay,
			})
		case isDirective(head, ".REQUIRE"):
			if len(fields) != 4 {
				return fmt.Errorf("netlist: line %d: require card needs '.require net output time'", no)
			}
			t, err := ParseValue(fields[3])
			if err != nil {
				return fmt.Errorf("netlist: line %d: %w", no, err)
			}
			d.Requires = append(d.Requires, Require{Net: fields[1], Output: fields[2], Time: t})
		case isDirective(head, ".END"):
			// terminator, accepted anywhere at top level
		default:
			return fmt.Errorf("netlist: line %d: unrecognized design card %q (element cards belong inside .net/.endnet)", no, fields[0])
		}
	}
	return nil
}

// cutNet moves s past the body and the .endnet of the net sec, whose .net
// card s has just read, and records the body in sec.
func (s *scanner) cutNet(sec *netSection) error {
	start := s.pos
	if start < 0 {
		start = len(s.src)
	}
	for {
		s.skipBody()
		fields := s.next()
		if fields == nil {
			sec.body, sec.open = s.src[start:], true
			return fmt.Errorf("netlist: net %q (line %d) is missing its .endnet", sec.name, sec.line)
		}
		switch head := fields[0]; {
		case isDirective(head, ".ENDNET"):
			sec.body = s.src[start:s.start]
			return nil
		case isDirective(head, ".NET"):
			sec.body, sec.open = s.src[start:s.start], true
			return fmt.Errorf("netlist: line %d: .net inside net %q (missing .endnet)", s.no, sec.name)
		}
	}
}

// parseSections parses every section into its tree or error, on
// min(GOMAXPROCS, sections) workers that take sections in turn.
func parseSections(secs []netSection) {
	var next atomic.Int64
	work := func() {
		d := newDeck()
		var s scanner
		for i := int(next.Add(1) - 1); i < len(secs); i = int(next.Add(1) - 1) {
			sec := &secs[i]
			d.reset()
			s = scanner{src: sec.body, no: sec.line}
			if sec.err = d.cards(&s); sec.err == nil && !sec.open {
				sec.tree, sec.err = d.build()
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(secs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// validate resolves every stage and require against the declared nets,
// given the index of each net by name.
func (d *Design) validate(index map[string]int) error {
	for i, s := range d.Stages {
		from, ok := index[s.FromNet]
		if !ok {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.FromNet)
		}
		if _, ok := index[s.ToNet]; !ok {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.ToNet)
		}
		if _, ok := d.Nets[from].Tree.LookupOutput(s.FromOutput); !ok {
			return fmt.Errorf("netlist: stage %d: %q is not a designated output of net %q", i+1, s.FromOutput, s.FromNet)
		}
	}
	for i, r := range d.Requires {
		net, ok := index[r.Net]
		if !ok {
			return fmt.Errorf("netlist: require %d references unknown net %q", i+1, r.Net)
		}
		if _, ok := d.Nets[net].Tree.LookupOutput(r.Output); !ok {
			return fmt.Errorf("netlist: require %d: %q is not a designated output of net %q", i+1, r.Output, r.Net)
		}
	}
	return nil
}

// WriteDesign renders a design back into deck form; the result round-trips
// through ParseDesign. Nets keep declaration order; stages and requires are
// emitted sorted for a canonical form. The deck is AppendDesignHeader, one
// AppendNet section per net, then AppendDesignTail.
func WriteDesign(d *Design) string {
	size := 64 + 64*(len(d.Stages)+len(d.Requires))
	for _, n := range d.Nets {
		size += 32 + treeSizeHint(n.Tree)
	}
	b := AppendDesignHeader(make([]byte, 0, size), d.Name, len(d.Nets), len(d.Stages))
	for _, n := range d.Nets {
		b = AppendNet(b, n.Name, n.Tree)
	}
	return string(AppendDesignTail(b, d.Stages, d.Requires))
}

// AppendDesignHeader appends a deck's leading comment and, for a named
// design, its .design card.
func AppendDesignHeader(b []byte, name string, nets, stages int) []byte {
	b = append(b, "* design: "...)
	b = strconv.AppendInt(b, int64(nets), 10)
	b = append(b, " nets, "...)
	b = strconv.AppendInt(b, int64(stages), 10)
	b = append(b, " stages\n"...)
	if name != "" {
		b = appendLine(b, ".design ", name)
	}
	return b
}

// AppendNet appends one net's .net ... .endnet section.
func AppendNet(b []byte, name string, t *rctree.Tree) []byte {
	b = appendLine(b, ".net ", name)
	b = appendTree(b, t)
	return append(b, ".endnet\n"...)
}

// AppendDesignTail appends the stage and require cards in canonical order
// and the closing .end card.
func AppendDesignTail(b []byte, stages []Stage, requires []Require) []byte {
	for _, s := range canonicalStages(stages) {
		b = appendNodes(append(b, ".stage"...), s.FromNet, s.FromOutput)
		b = append(append(b, ' '), s.ToNet...)
		b = appendVal(b, s.Delay)
		b = append(b, '\n')
	}
	requires = append([]Require(nil), requires...)
	sort.SliceStable(requires, func(i, j int) bool {
		if requires[i].Net != requires[j].Net {
			return requires[i].Net < requires[j].Net
		}
		return requires[i].Output < requires[j].Output
	})
	for _, r := range requires {
		b = appendNodes(append(b, ".require"...), r.Net, r.Output)
		b = appendVal(b, r.Time)
		b = append(b, '\n')
	}
	return append(b, ".end\n"...)
}

// appendLine appends a directive, its argument and a newline.
func appendLine(b []byte, directive, arg string) []byte {
	return append(append(append(b, directive...), arg...), '\n')
}

// canonicalStages returns the stages in the deterministic order WriteDesign
// emits them.
func canonicalStages(stages []Stage) []Stage {
	out := append([]Stage(nil), stages...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].FromNet != out[j].FromNet {
			return out[i].FromNet < out[j].FromNet
		}
		if out[i].FromOutput != out[j].FromOutput {
			return out[i].FromOutput < out[j].FromOutput
		}
		return out[i].ToNet < out[j].ToNet
	})
	return out
}
