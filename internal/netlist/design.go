package netlist

import (
	"fmt"
	"sort"
	"strconv"

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

// ParseDesign reads a multi-net design deck in one pass: the cards of each
// net section go straight to that net's deck. Every stage and require is
// validated against the declared nets and their designated outputs, so a
// returned Design is structurally sound (cycles are only diagnosed when a
// timing graph is built from it).
func ParseDesign(src string) (*Design, error) {
	d := &Design{}
	var (
		curName string // net being collected, "" at top level
		netLine int
	)
	net := newDeck()
	seenNets := map[string]int{}
	s := scanner{src: src}
	for fields := s.next(); fields != nil; fields = s.next() {
		no, head := s.no, fields[0]
		if curName != "" {
			// Inside a net section: .endnet closes it, everything else is
			// a card of the net's deck.
			var err error
			switch {
			case isDirective(head, ".ENDNET"):
				var tree *rctree.Tree
				if tree, err = net.build(); err == nil {
					d.Nets = append(d.Nets, DesignNet{Name: curName, Tree: tree})
					curName = ""
					continue
				}
			case isDirective(head, ".NET"):
				return nil, fmt.Errorf("netlist: line %d: .net inside net %q (missing .endnet)", no, curName)
			default:
				err = net.card(fields, no)
			}
			if err != nil {
				return nil, fmt.Errorf("netlist: design net %q (line %d): %w", curName, netLine, err)
			}
			continue
		}
		switch {
		case isDirective(head, ".DESIGN"):
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: .design takes exactly one name", no)
			}
			if d.Name != "" {
				return nil, fmt.Errorf("netlist: line %d: duplicate .design (already %q)", no, d.Name)
			}
			d.Name = fields[1]
		case isDirective(head, ".NET"):
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: .net takes exactly one name", no)
			}
			if prev, dup := seenNets[fields[1]]; dup {
				return nil, fmt.Errorf("netlist: line %d: net %q already defined at line %d", no, fields[1], prev)
			}
			seenNets[fields[1]] = no
			curName, netLine = fields[1], no
			net.reset()
		case isDirective(head, ".ENDNET"):
			return nil, fmt.Errorf("netlist: line %d: .endnet without .net", no)
		case isDirective(head, ".STAGE"):
			if len(fields) != 5 {
				return nil, fmt.Errorf("netlist: line %d: stage card needs '.stage fromNet output toNet delay'", no)
			}
			delay, err := ParseValue(fields[4])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", no, err)
			}
			if delay < 0 {
				return nil, fmt.Errorf("netlist: line %d: negative stage delay %g", no, delay)
			}
			d.Stages = append(d.Stages, Stage{
				FromNet: fields[1], FromOutput: fields[2], ToNet: fields[3], Delay: delay,
			})
		case isDirective(head, ".REQUIRE"):
			if len(fields) != 4 {
				return nil, fmt.Errorf("netlist: line %d: require card needs '.require net output time'", no)
			}
			t, err := ParseValue(fields[3])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", no, err)
			}
			d.Requires = append(d.Requires, Require{Net: fields[1], Output: fields[2], Time: t})
		case isDirective(head, ".END"):
			// terminator, accepted anywhere at top level
		default:
			return nil, fmt.Errorf("netlist: line %d: unrecognized design card %q (element cards belong inside .net/.endnet)", no, fields[0])
		}
	}
	if curName != "" {
		return nil, fmt.Errorf("netlist: net %q (line %d) is missing its .endnet", curName, netLine)
	}
	if len(d.Nets) == 0 {
		return nil, fmt.Errorf("netlist: design has no nets")
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// validate resolves every stage and require against the declared nets.
func (d *Design) validate() error {
	for i, s := range d.Stages {
		from := d.Net(s.FromNet)
		if from == nil {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.FromNet)
		}
		if d.Net(s.ToNet) == nil {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.ToNet)
		}
		if !hasOutput(from.Tree, s.FromOutput) {
			return fmt.Errorf("netlist: stage %d: %q is not a designated output of net %q", i+1, s.FromOutput, s.FromNet)
		}
	}
	for i, r := range d.Requires {
		net := d.Net(r.Net)
		if net == nil {
			return fmt.Errorf("netlist: require %d references unknown net %q", i+1, r.Net)
		}
		if !hasOutput(net.Tree, r.Output) {
			return fmt.Errorf("netlist: require %d: %q is not a designated output of net %q", i+1, r.Output, r.Net)
		}
	}
	return nil
}

func hasOutput(t *rctree.Tree, name string) bool {
	id, ok := t.Lookup(name)
	if !ok {
		return false
	}
	for _, o := range t.Outputs() {
		if o == id {
			return true
		}
	}
	return false
}

// WriteDesign renders a design back into deck form; the result round-trips
// through ParseDesign. Nets keep declaration order; stages and requires are
// emitted sorted for a canonical form.
func WriteDesign(d *Design) string {
	size := 64 + 64*(len(d.Stages)+len(d.Requires))
	for _, n := range d.Nets {
		size += 32 + treeSizeHint(n.Tree)
	}
	b := make([]byte, 0, size)
	b = append(b, "* design: "...)
	b = strconv.AppendInt(b, int64(len(d.Nets)), 10)
	b = append(b, " nets, "...)
	b = strconv.AppendInt(b, int64(len(d.Stages)), 10)
	b = append(b, " stages\n"...)
	if d.Name != "" {
		b = appendLine(b, ".design ", d.Name)
	}
	for _, n := range d.Nets {
		b = appendLine(b, ".net ", n.Name)
		b = appendTree(b, n.Tree)
		b = append(b, ".endnet\n"...)
	}
	for _, s := range canonicalStages(d.Stages) {
		b = appendNodes(append(b, ".stage"...), s.FromNet, s.FromOutput)
		b = append(append(b, ' '), s.ToNet...)
		b = appendVal(b, s.Delay)
		b = append(b, '\n')
	}
	requires := append([]Require(nil), d.Requires...)
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
	b = append(b, ".end\n"...)
	return string(b)
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
