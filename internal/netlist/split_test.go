package netlist_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
	"repro/internal/rctree"
)

// diffTree describes the first difference between two trees, or returns "".
func diffTree(a, b *rctree.Tree) string {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Sprintf("%d nodes vs %d", a.NumNodes(), b.NumNodes())
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a.NumNodes() {
		id := rctree.NodeID(i)
		if a.Name(id) != b.Name(id) {
			return fmt.Sprintf("node %d named %q vs %q", i, a.Name(id), b.Name(id))
		}
		if got, ok := b.Lookup(a.Name(id)); !ok || got != id {
			return fmt.Sprintf("Lookup(%q) = %d, %v", a.Name(id), got, ok)
		}
		if !same(a.NodeCap(id), b.NodeCap(id)) {
			return fmt.Sprintf("node %q cap %g vs %g", a.Name(id), a.NodeCap(id), b.NodeCap(id))
		}
		if fmt.Sprint(a.Children(id)) != fmt.Sprint(b.Children(id)) {
			return fmt.Sprintf("node %q children %v vs %v", a.Name(id), a.Children(id), b.Children(id))
		}
		if id == rctree.Root {
			continue
		}
		if a.Parent(id) != b.Parent(id) {
			return fmt.Sprintf("node %q parent %d vs %d", a.Name(id), a.Parent(id), b.Parent(id))
		}
		ka, ra, ca := a.Edge(id)
		kb, rb, cb := b.Edge(id)
		if ka != kb || !same(ra, rb) || !same(ca, cb) {
			return fmt.Sprintf("node %q edge (%v %g %g) vs (%v %g %g)", a.Name(id), ka, ra, ca, kb, rb, cb)
		}
	}
	if fmt.Sprint(a.Outputs()) != fmt.Sprint(b.Outputs()) {
		return fmt.Sprintf("outputs %v vs %v", a.Outputs(), b.Outputs())
	}
	return ""
}

// diffDesign describes the first difference between two designs, or
// returns "".
func diffDesign(a, b *netlist.Design) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	}
	if fmt.Sprint(a.Stages) != fmt.Sprint(b.Stages) || fmt.Sprint(a.Requires) != fmt.Sprint(b.Requires) {
		return fmt.Sprintf("stages %v requires %v vs stages %v requires %v", a.Stages, a.Requires, b.Stages, b.Requires)
	}
	if len(a.Nets) != len(b.Nets) {
		return fmt.Sprintf("%d nets vs %d", len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		if a.Nets[i].Name != b.Nets[i].Name {
			return fmt.Sprintf("net %d named %q vs %q", i, a.Nets[i].Name, b.Nets[i].Name)
		}
		if diff := diffTree(a.Nets[i].Tree, b.Nets[i].Tree); diff != "" {
			return fmt.Sprintf("net %q: %s", a.Nets[i].Name, diff)
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// matchSequential parses src with ParseDesign and with the one-pass oracle
// and fails unless both return the same error text and the same design.
func matchSequential(t *testing.T, src string) (*netlist.Design, error) {
	t.Helper()
	got, err := netlist.ParseDesign(src)
	want, wantErr := netlist.ParseDesignSeq(src)
	if errText(err) != errText(wantErr) {
		t.Fatalf("error differs from the one-pass parser:\n got  %s\n want %s\ndeck:\n%q", errText(err), errText(wantErr), src)
	}
	if err == nil {
		if diff := diffDesign(got, want); diff != "" {
			t.Fatalf("design differs from the one-pass parser: %s\ndeck:\n%q", diff, src)
		}
	}
	return got, err
}

// FuzzSplitParseMatchesSequential asserts that the two-phase ParseDesign
// returns, for any input, the same design and the same error text as the
// one-pass parser it replaced.
func FuzzSplitParseMatchesSequential(f *testing.F) {
	for _, s := range netlist.DesignSeeds() {
		f.Add(s)
	}
	for _, tc := range firstErrorCases {
		f.Add(tc.src)
	}
	cfg := randnet.DefaultDesignConfig(3, 4)
	cfg.Net = randnet.DefaultConfig(8)
	deck := netlist.WriteDesign(randnet.DesignSeed(3, cfg))
	f.Add(deck)
	f.Add(deck[:len(deck)/2])
	f.Add(deck[len(deck)/3:])
	f.Fuzz(func(t *testing.T, src string) {
		matchSequential(t, src)
	})
}

const cleanNet = "R1 in o 1\nC1 o 0 1\n.output o\n"

// firstErrorCases put errors in several places of one deck; the error
// reported must be the first in deck order, as a one-pass parse finds it.
var firstErrorCases = []struct {
	name, src, want string // want "" means the deck parses
}{
	{"earlier net wins", ".net a\n" + cleanNet + ".endnet\n.net b\nR1 in o 1\nX1 o\n.endnet\n.net c\nY1\n.endnet\n.net d\nR1 in o 1\n.endnet\n",
		`netlist: design net "b" (line 6): netlist: line 8: unrecognized card "X1"`},
	{"earlier build error wins", ".net a\nR1 in o 1\nR2 o in 1\n.endnet\n.net b\nX1\n.endnet\n",
		`netlist: design net "a" (line 1): netlist: line 3: element R2 closes a resistive loop at node "o"; the network is not a tree`},
	{"net error before bad stage", ".net a\nX1 o\n.endnet\n.stage a o\n",
		`netlist: design net "a" (line 1): netlist: line 2: unrecognized card "X1"`},
	{"bad stage before net error", ".net a\n" + cleanNet + ".endnet\n.stage a o\n.net b\nX1\n.endnet\n",
		"netlist: line 6: stage card needs '.stage fromNet output toNet delay'"},
	{"nested net after bad card", ".net a\nR1 in o 1\nX1 q\n.net b\n" + cleanNet + ".endnet\n",
		`netlist: design net "a" (line 1): netlist: line 3: unrecognized card "X1"`},
	{"nested net after clean cards", ".net a\nR1 in o 1\n.output ghost\n.net b\n",
		`netlist: line 4: .net inside net "a" (missing .endnet)`},
	{"nested net card led by U+00A0", ".net a\n" + cleanNet + "\u00a0.net\u00a0",
		`netlist: line 5: .net inside net "a" (missing .endnet)`},
	{"missing endnet after clean body", ".net a\n" + cleanNet,
		`netlist: net "a" (line 1) is missing its .endnet`},
	{"missing endnet at end of deck", ".net a\nR1 in o 1\n.output ghost",
		`netlist: net "a" (line 1) is missing its .endnet`},
	{"missing endnet after bad card", ".net a\nR1 in o 1\nC1 o\n",
		`netlist: design net "a" (line 1): netlist: line 3: capacitor card needs 'Cname node 0 value'`},
	{"net card on the last line", ".net a", `netlist: net "a" (line 1) is missing its .endnet`},
	{"duplicate net after failing net", ".net a\nX1\n.endnet\n.net a\n" + cleanNet + ".endnet\n",
		`netlist: design net "a" (line 1): netlist: line 2: unrecognized card "X1"`},
	{"duplicate net after clean net", ".net a\n" + cleanNet + ".endnet\n.net a\n" + cleanNet + ".endnet\n",
		`netlist: line 6: net "a" already defined at line 1`},
	{"endnet led by U+00A0", ".net a\n" + cleanNet + "\u00a0.endnet\n.net b\n" + cleanNet + "\u3000.endnet\u0085\n.stage a o b 1\n", ""},
	{"endnet led by blanks", ".net a\n \t\v\f\r\n" + cleanNet + " \t.endnet\r\n", ""},
	{"directives in comments", ".net a\n* .endnet\n; .net b\n" + cleanNet + "R2 o p 1 ; .endnet\n.endnet\n.net b\nX1\n.endnet\n",
		`netlist: design net "b" (line 9): netlist: line 10: unrecognized card "X1"`},
	{"top-level element after nets", ".net a\n" + cleanNet + ".endnet\nR9 in o 1\n",
		`netlist: line 6: unrecognized design card "R9" (element cards belong inside .net/.endnet)`},
	{"validate after clean nets", ".net a\n" + cleanNet + ".endnet\n.net b\n" + cleanNet + ".endnet\n.stage a o b 1\n.require b in 1\n.stage a o c 1\n",
		`netlist: stage 2 references unknown net "c"`},
}

// TestSplitParseFirstError pins which error wins when a deck holds several.
// Run it at -cpu 1,2 to cover the inline single worker and parallel ones.
func TestSplitParseFirstError(t *testing.T) {
	for _, tc := range firstErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := matchSequential(t, tc.src)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if len(d.Nets) == 0 {
					t.Fatal("no nets")
				}
				return
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v\nwant    %s", err, tc.want)
			}
		})
	}
}

// TestSplitParseManyNets parses a design with more nets than workers, clean
// and with an error planted in one net at a time, across the deck.
func TestSplitParseManyNets(t *testing.T) {
	cfg := randnet.DefaultDesignConfig(4, 6)
	cfg.Net = randnet.DefaultConfig(12)
	deck := netlist.WriteDesign(randnet.DesignSeed(5, cfg))
	if _, err := matchSequential(t, deck); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i += 5 {
		net := fmt.Sprintf(".net l%dn%d\n", i/6, i%6)
		at := strings.Index(deck, net)
		if at < 0 {
			t.Fatalf("no %q in deck", net)
		}
		at += len(net)
		if _, err := matchSequential(t, deck[:at]+"X1 bad\n"+deck[at:]); err == nil {
			t.Fatalf("net %d: bad card accepted", i)
		}
	}
}

// TestConcurrentFirstLookup: a parsed tree builds its name index on the
// first Lookup. Eight goroutines race to that first Lookup and
// LookupOutput on every net of freshly parsed designs, and every answer
// must equal an index built eagerly from the tree's columns. Run it under
// -race.
func TestConcurrentFirstLookup(t *testing.T) {
	cfg := randnet.DefaultDesignConfig(3, 4)
	cfg.Net = randnet.DefaultConfig(30)
	deck := netlist.WriteDesign(randnet.DesignSeed(7, cfg))
	for round := 0; round < 4; round++ {
		d, err := netlist.ParseDesign(deck)
		if err != nil {
			t.Fatal(err)
		}
		type index struct {
			ids  map[string]rctree.NodeID
			outs map[string]bool
		}
		eager := make([]index, len(d.Nets))
		for i, n := range d.Nets {
			c := n.Tree.Columns()
			eager[i] = index{ids: map[string]rctree.NodeID{}, outs: map[string]bool{}}
			for id, name := range c.Names {
				eager[i].ids[name] = rctree.NodeID(id)
			}
			for _, o := range c.Outputs {
				eager[i].outs[c.Names[o]] = true
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range d.Nets {
					i := (k + g) % len(d.Nets) // goroutines start on different nets
					tree, want := d.Nets[i].Tree, eager[i]
					for name, wantID := range want.ids {
						for _, probe := range []string{name, name + "'"} {
							id, ok := tree.Lookup(probe)
							if wid, wok := want.ids[probe]; ok != wok || ok && id != wid {
								errs <- fmt.Sprintf("net %d: Lookup(%q) = %d, %v; want %d, %v", i, probe, id, ok, wid, wok)
								return
							}
							oid, ok := tree.LookupOutput(probe)
							if want.outs[probe] != ok || ok && oid != wantID {
								errs <- fmt.Sprintf("net %d: LookupOutput(%q) = %d, %v; want output %v", i, probe, oid, ok, want.outs[probe])
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
