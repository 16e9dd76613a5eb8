package netlist

import (
	"fmt"

	"repro/internal/rctree"
)

// parseDesignSeq is the one-pass design parser that ParseDesign replaced,
// kept as the oracle of its differential tests: the cards of each net
// section go straight to that net's deck, and the first error in deck order
// ends the parse. It reads cards with the frozen scanner and builds trees
// with the frozen deck (frozen_test.go), so it shares no tokenizer or build
// code with ParseDesign.
func parseDesignSeq(src string) (*Design, error) {
	d := &Design{}
	var (
		curName string // net being collected, "" at top level
		netLine int
	)
	net := newFrozenDeck()
	seenNets := map[string]int{}
	s := frozenScanner{src: src}
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
	if err := validateSeq(d); err != nil {
		return nil, err
	}
	return d, nil
}

// validateSeq is validate as it was before the name index: each name
// resolves by a linear Design.Net scan.
func validateSeq(d *Design) error {
	for i, s := range d.Stages {
		from := d.Net(s.FromNet)
		if from == nil {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.FromNet)
		}
		if d.Net(s.ToNet) == nil {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.ToNet)
		}
		if _, ok := from.Tree.LookupOutput(s.FromOutput); !ok {
			return fmt.Errorf("netlist: stage %d: %q is not a designated output of net %q", i+1, s.FromOutput, s.FromNet)
		}
	}
	for i, r := range d.Requires {
		net := d.Net(r.Net)
		if net == nil {
			return fmt.Errorf("netlist: require %d references unknown net %q", i+1, r.Net)
		}
		if _, ok := net.Tree.LookupOutput(r.Output); !ok {
			return fmt.Errorf("netlist: require %d: %q is not a designated output of net %q", i+1, r.Output, r.Net)
		}
	}
	return nil
}
