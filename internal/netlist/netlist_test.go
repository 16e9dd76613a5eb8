package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rctree"
)

// randTree builds a random mixed resistor/line tree with lumped caps and all
// leaves as outputs (a local stand-in for randnet, which now depends on this
// package and cannot be imported from its in-package tests).
func randTree(rng *rand.Rand, nodes int) *rctree.Tree {
	b := rctree.NewBuilder("in")
	ids := []rctree.NodeID{rctree.Root}
	for i := 0; i < nodes; i++ {
		parent := ids[rng.Intn(len(ids))]
		name := fmt.Sprintf("n%d", i+1)
		r := rng.Float64()*100 + 1e-3
		var id rctree.NodeID
		if rng.Float64() < 0.4 {
			id = b.Line(parent, name, r, rng.Float64()*10+1e-6)
		} else {
			id = b.Resistor(parent, name, r)
		}
		if rng.Float64() < 0.7 {
			b.Capacitor(id, rng.Float64()*10+1e-6)
		}
		ids = append(ids, id)
	}
	b.Capacitor(ids[len(ids)-1], 1)
	tr, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tr
}

const fig7Deck = `
* Figure 7 of the paper
.input in
R1 in  n1 15
C1 n1  0  2
R2 n1  b  8
C2 b   0  7
U1 n1  n2 3 4    ; uniform RC line R=3 C=4
C3 n2  0  9
.output n2
.end
`

func TestParseFig7(t *testing.T) {
	tr, err := Parse(fig7Deck)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, ok := tr.Lookup("n2")
	if !ok {
		t.Fatal("node n2 missing")
	}
	tm, err := tr.CharacteristicTimes(out)
	if err != nil {
		t.Fatal(err)
	}
	// Known Figure 7 values: TP=419, TD=363, TR=6033/18, Ree=18.
	if math.Abs(tm.TP-419) > 1e-9 || math.Abs(tm.TD-363) > 1e-9 ||
		math.Abs(tm.TR-6033.0/18) > 1e-9 || math.Abs(tm.Ree-18) > 1e-9 {
		t.Errorf("Times = %+v", tm)
	}
	if len(tr.Outputs()) != 1 || tr.Outputs()[0] != out {
		t.Errorf("Outputs = %v", tr.Outputs())
	}
}

// TestParseOutOfOrder: cards may appear in any order; the parser orients
// the tree from the input.
func TestParseOutOfOrder(t *testing.T) {
	deck := `
C3 n2 0 9
U1 n2 n1 3 4      ; note: reversed terminal order
R2 b n1 8
C1 n1 0 2
R1 n1 in 15
C2 0 b 7          ; ground first
.input in
.output n2 b
`
	tr, err := Parse(deck)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, _ := tr.Lookup("n2")
	tm, err := tr.CharacteristicTimes(out)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm.TP-419) > 1e-9 || math.Abs(tm.TD-363) > 1e-9 {
		t.Errorf("Times = %+v, want Figure 7 values", tm)
	}
	if len(tr.Outputs()) != 2 {
		t.Errorf("Outputs = %d, want 2", len(tr.Outputs()))
	}
}

func TestParseValueSuffixes(t *testing.T) {
	cases := map[string]float64{
		"15":     15,
		"1.5k":   1500,
		"2meg":   2e6,
		"3m":     3e-3,
		"4u":     4e-6,
		"5n":     5e-9,
		"6p":     6e-12,
		"7f":     7e-15,
		"1g":     1e9,
		"2.5e-3": 2.5e-3,
		"-4":     -4,
	}
	for s, want := range cases {
		got, err := ParseValue(s)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", s, err)
			continue
		}
		if math.Abs(got-want) > 1e-15*math.Abs(want) {
			t.Errorf("ParseValue(%q) = %g, want %g", s, got, want)
		}
	}
	if _, err := ParseValue("abc"); err == nil {
		t.Error("ParseValue accepted garbage")
	}
	if _, err := ParseValue("1x"); err == nil {
		t.Error("ParseValue accepted unknown suffix")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, deck, want string
	}{
		{"empty", "", "no elements"},
		{"loop", ".input a\nR1 a b 1\nR2 b c 1\nR3 c a 1\nC1 b 0 1", "loop"},
		{"disconnected", ".input a\nR1 a b 1\nC1 b 0 1\nR2 x y 1", "disconnected"},
		{"r to ground", ".input a\nR1 a 0 5", "ground"},
		{"self loop", ".input a\nR1 a a 5", "self-loop"},
		{"dup element", ".input a\nR1 a b 1\nR1 b c 2\nC1 b 0 1", "already defined"},
		{"bad cap", ".input a\nR1 a b 1\nC1 a b 5", "ground"},
		{"negative cap", ".input a\nR1 a b 1\nC1 b 0 -5", "negative"},
		{"unknown card", ".input a\nX1 a b 1", "unrecognized"},
		{"bad resistor arity", ".input a\nR1 a b", "resistor card"},
		{"bad line arity", ".input a\nU1 a b 1", "line card"},
		{"bad cap arity", ".input a\nC1 a 0", "capacitor card"},
		{"two inputs", ".input a\n.input b\nR1 a b 1\nC1 b 0 1", "duplicate .input"},
		{"empty output", ".input a\n.output\nR1 a b 1\nC1 b 0 1", ".output needs"},
		{"missing output node", ".input a\nR1 a b 1\nC1 b 0 1\n.output zz", "does not exist"},
		{"input isolated", ".input z\nR1 a b 1\nC1 b 0 1", "touches no element"},
		{"floating cap", ".input a\nR1 a b 1\nC1 b 0 1\nC2 qq 0 3", "not connected"},
		{"bad value", ".input a\nR1 a b 1zz", "bad value"},
		{"negative resistor", ".input a\nR1 a b -5\nC1 b 0 1", "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.deck)
			if err == nil {
				t.Fatalf("Parse succeeded, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDefaultInputName(t *testing.T) {
	tr, err := Parse("R1 in b 5\nC1 b 0 2\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Name(rctree.Root) != "in" {
		t.Errorf("default input = %q", tr.Name(rctree.Root))
	}
}

// TestWriteParseRoundTrip: Write(Parse(deck)) preserves the characteristic
// times of every output, on the Figure 7 deck and on random trees.
func TestWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trees := []*rctree.Tree{}
	if tr, err := Parse(fig7Deck); err == nil {
		trees = append(trees, tr)
	} else {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		trees = append(trees, randTree(rng, 1+rng.Intn(25)))
	}
	for ti, tr := range trees {
		deck := Write(tr)
		back, err := Parse(deck)
		if err != nil {
			t.Fatalf("tree %d: reparse failed: %v\n%s", ti, err, deck)
		}
		if back.NumNodes() != tr.NumNodes() {
			t.Fatalf("tree %d: node count %d -> %d", ti, tr.NumNodes(), back.NumNodes())
		}
		for _, e := range tr.Outputs() {
			want, err := tr.CharacteristicTimes(e)
			if err != nil {
				t.Fatal(err)
			}
			id, ok := back.Lookup(tr.Name(e))
			if !ok {
				t.Fatalf("tree %d: output %q lost in round trip", ti, tr.Name(e))
			}
			got, err := back.CharacteristicTimes(id)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.TP-want.TP) > 1e-9*(1+want.TP) ||
				math.Abs(got.TD-want.TD) > 1e-9*(1+want.TD) ||
				math.Abs(got.TR-want.TR) > 1e-9*(1+want.TR) {
				t.Fatalf("tree %d output %q: times %+v -> %+v", ti, tr.Name(e), want, got)
			}
		}
	}
}

func TestWriteIncludesRootCap(t *testing.T) {
	b := rctree.NewBuilder("in")
	b.Capacitor(rctree.Root, 0.04)
	n := b.Resistor(rctree.Root, "n", 380)
	b.Capacitor(n, 1)
	b.Output(n)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	deck := Write(tr)
	if !strings.Contains(deck, "C1 in 0 0.04") {
		t.Errorf("deck missing input capacitor:\n%s", deck)
	}
	if _, err := Parse(deck); err != nil {
		t.Errorf("reparse: %v", err)
	}
}

// TestCapacitorOnlyDeck is the regression for a fuzzer finding: a
// zero-resistance U card folds into capacitance at the input, and the
// resulting single-node deck must round-trip.
func TestCapacitorOnlyDeck(t *testing.T) {
	tr, err := Parse("U in 1 0 10")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.NumNodes() != 1 || tr.TotalCap() != 10 {
		t.Errorf("tree = %d nodes, C=%g; want 1 node, C=10", tr.NumNodes(), tr.TotalCap())
	}
	back, err := Parse(Write(tr))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.TotalCap() != 10 {
		t.Errorf("round trip capacitance = %g", back.TotalCap())
	}
	// Pure capacitor deck, output at the input node.
	tr2, err := Parse(".input a\nC1 a 0 5\n.output a")
	if err != nil {
		t.Fatalf("capacitor-only with output: %v", err)
	}
	if len(tr2.Outputs()) != 1 {
		t.Error("output lost")
	}
	// Floating capacitor in a capacitor-only deck still rejected.
	if _, err := Parse("C1 zz 0 5"); err == nil {
		t.Error("floating capacitor-only deck accepted")
	}
	if _, err := Parse(".input a\nC1 a 0 5\n.output ghost"); err == nil {
		t.Error("ghost output accepted")
	}
}

// TestFloatingCapacitorErrorDeterministic: with several floating
// capacitors the error names the one on the earliest line, every time.
func TestFloatingCapacitorErrorDeterministic(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"with resistors", ".input a\nR1 a b 1\nC1 b 0 1\nC2 qq 0 3\nC3 zz 0 3\n"},
		{"capacitors only", ".input a\nC1 a 0 1\n* no resistors\nC2 qq 0 3\nC3 zz 0 3\n"},
	} {
		for range 20 {
			_, err := Parse(tc.src)
			if err == nil || err.Error() != `netlist: line 4: capacitor node "qq" is not connected to the tree` {
				t.Fatalf("%s: error = %v, want the floating capacitor on line 4", tc.name, err)
			}
		}
	}
}
