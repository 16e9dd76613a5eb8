package netlist

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rctree"
)

// deepChainDeck builds a single-net deck whose tree is one long RC ladder —
// the degenerate topology that maximizes path length (and once overflowed
// recursive walkers).
func deepChainDeck(n int) string {
	var b strings.Builder
	prev := "in"
	for i := 1; i <= n; i++ {
		cur := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&b, "R%d %s %s 1\nC%d %s 0 0.5\n", i, prev, cur, i, cur)
		prev = cur
	}
	fmt.Fprintf(&b, ".output %s\n", prev)
	return b.String()
}

// wideFanoutDeck builds a single-net deck whose tree is one star — the
// degenerate topology that maximizes a node's child count.
func wideFanoutDeck(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "R%d in n%d 2\nC%d n%d 0 1\n", i, i, i, i)
		if i%7 == 0 {
			fmt.Fprintf(&b, ".output n%d\n", i)
		}
	}
	return b.String()
}

// deepStageChainDesign builds a design-level chain: n nets staged head to
// tail, so the timing graph has n levels of one net each.
func deepStageChainDesign(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ".net s%d\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n", i)
	}
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, ".stage s%d o s%d 1.5\n", i-1, i)
	}
	return b.String()
}

// wideStageFanoutDesign builds a design-level star: one driver net staging
// into n sinks, so one net's fanout cone covers the whole graph.
func wideStageFanoutDesign(n int) string {
	var b strings.Builder
	b.WriteString(".net drv\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ".net k%d\nR1 in o 2\nC1 o 0 2\n.output o\n.endnet\n.stage drv o k%d 1\n", i, i)
	}
	return b.String()
}

// separatorSeeds are single-net decks on the edges of line splitting and
// card matching: CRLF line endings, no final newline, mixed-case
// directives and card letters, ASCII tab/VT/FF separators, and the
// non-ASCII spaces strings.Fields splits on (U+00A0, U+0085, U+3000).
var separatorSeeds = []string{
	".input in\r\nR1 in o 1\r\nC1 o 0 1\r\n.output o\r\n.end\r\n",
	"R1 in o 1\nC1 o 0 1\n.output o",
	".Input in\nr1 in o 1\nc1 o GND 1\nu2 o p 1 2\n.OutPut o p\n.End",
	"R1\tin\to\t1\nC1\vo\v0\v1\nR2\fo\fp\f2\n.output\t\vp",
	"R1\u00a0in\u00a0o 1\nC1 o\u00850\u00851\nU1 o\u3000p 1\u30002\n.output\u3000p\u00a0o",
	"\u00a0R1 in o 1\u0085\n\u3000C1 o 0 1\n.output o\u00a0; trailing\n",
}

// FuzzParse asserts the parser never panics and that any deck it accepts
// survives a Write→Parse round trip with characteristic times intact.
func FuzzParse(f *testing.F) {
	seeds := []string{
		fig7Deck,
		"",
		"* comment only\n",
		".input a\nR1 a b 1\nC1 b 0 2p\n.output b\n",
		"U1 in far 3k 4u\nC9 far 0 1n\n",
		"R1 in x 1\nR2 x y 2\nR3 y in 3", // loop
		".input\n",
		"C1 0 0 5",
		"R1 in in 5",
		"X? ???",
		".output ghost\nR1 in a 1\nC1 a 0 1",
		deepChainDeck(80),
		wideFanoutDeck(60),
	}
	seeds = append(seeds, separatorSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		deck := Write(tree)
		back, err := Parse(deck)
		if err != nil {
			t.Fatalf("accepted deck failed round trip: %v\noriginal:\n%s\nwritten:\n%s", err, src, deck)
		}
		if back.NumNodes() != tree.NumNodes() {
			t.Fatalf("round trip changed node count %d -> %d", tree.NumNodes(), back.NumNodes())
		}
		for _, e := range tree.Outputs() {
			want, err := tree.CharacteristicTimes(e)
			if err != nil {
				t.Fatal(err)
			}
			id, ok := back.Lookup(tree.Name(e))
			if !ok {
				t.Fatalf("output %q lost", tree.Name(e))
			}
			got, err := back.CharacteristicTimes(id)
			if err != nil {
				t.Fatal(err)
			}
			if !floatsClose(got.TD, want.TD) || !floatsClose(got.TP, want.TP) {
				t.Fatalf("times changed: %+v -> %+v", want, got)
			}
		}
	})
}

func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// FuzzParseDesign asserts the multi-net parser never panics and that any
// design it accepts survives a WriteDesign→ParseDesign round trip: same
// shape, same stages and requires, and per-net characteristic times intact.
func FuzzParseDesign(f *testing.F) {
	seeds := []string{
		"",
		".net a\nR1 in o 1\nC1 o 0 2\n.output o\n.endnet\n",
		".design d\n.net a\n" + fig7Deck + "\n.endnet\n.net b\nU1 in far 3 4\nC1 far 0 1\n.output far\n.endnet\n.stage a n2 b 2.5\n.require b far 100\n.end\n",
		".net a\n.endnet\n",
		".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a o a 0\n", // self-loop stage: parses, cycles are the graph's problem
		".stage x y z 1\n",
		".require x y 1\n",
		".net loop\nR1 in x 1\nR2 x in 3\n.endnet\n",
		".design\n",
		// Degenerate topologies: deep chains and wide fanout, at both the
		// tree level (inside one net) and the stage-graph level.
		".net deep\n" + deepChainDeck(80) + ".endnet\n",
		".net wide\n" + wideFanoutDeck(60) + ".endnet\n",
		deepStageChainDesign(24),
		wideStageFanoutDesign(24),
		// Line endings, case and separators, as in FuzzParse but at design
		// level.
		".design d\r\n.net a\r\nR1 in o 1\r\nC1 o 0 1\r\n.output o\r\n.endnet\r\n.stage a o a 1\r\n",
		".NeT a\nR1 in o 1\nC1 o 0 1\n.Output o\n.EndNet\n.NET b\nr1 in o 1\nc1 o gnd 1\n.OUTPUT o\n.ENDNET\n.Stage a o b 2\n.REQUIRE b o 9",
		".net a\tx\n.endnet\n",
		".net\va\nR1\tin\fo 1\nC1 o\v0 1\n.output\to\n.endnet\f\n",
		".net a\nR1\u00a0in o\u00851\nC1 o\u30000 1\n.output\u3000o\n.endnet\u0085\n",
	}
	for _, s := range separatorSeeds {
		seeds = append(seeds, ".net a\n"+s+"\n.endnet\n")
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseDesign(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		deck := WriteDesign(d)
		back, err := ParseDesign(deck)
		if err != nil {
			t.Fatalf("accepted design failed round trip: %v\noriginal:\n%s\nwritten:\n%s", err, src, deck)
		}
		if back.Name != d.Name {
			t.Fatalf("round trip changed name %q -> %q", d.Name, back.Name)
		}
		if len(back.Nets) != len(d.Nets) || len(back.Stages) != len(d.Stages) || len(back.Requires) != len(d.Requires) {
			t.Fatalf("round trip changed shape:\n%s\nvs\n%s", deck, WriteDesign(back))
		}
		// WriteDesign emits stages in canonical order, so the reparse must
		// reproduce that ordering exactly.
		want := canonicalStages(d.Stages)
		for i := range back.Stages {
			if back.Stages[i] != want[i] {
				t.Fatalf("stage %d changed: %+v -> %+v", i, want[i], back.Stages[i])
			}
		}
		for i := range d.Nets {
			if back.Nets[i].Name != d.Nets[i].Name {
				t.Fatalf("net %d renamed %q -> %q", i, d.Nets[i].Name, back.Nets[i].Name)
			}
			tree, bt := d.Nets[i].Tree, back.Nets[i].Tree
			if bt.NumNodes() != tree.NumNodes() {
				t.Fatalf("net %q node count %d -> %d", d.Nets[i].Name, tree.NumNodes(), bt.NumNodes())
			}
			for _, e := range tree.Outputs() {
				want, err := tree.CharacteristicTimes(e)
				if err != nil {
					t.Fatal(err)
				}
				id, ok := bt.Lookup(tree.Name(e))
				if !ok {
					t.Fatalf("net %q output %q lost", d.Nets[i].Name, tree.Name(e))
				}
				got, err := bt.CharacteristicTimes(id)
				if err != nil {
					t.Fatal(err)
				}
				if !floatsClose(got.TD, want.TD) || !floatsClose(got.TP, want.TP) {
					t.Fatalf("net %q times changed: %+v -> %+v", d.Nets[i].Name, want, got)
				}
			}
		}
	})
}

// FuzzArenaRoundTrip pins the flat-arena encoding against the parser's full
// input space: for every tree the parser accepts, arena build →
// materialize → rebuild must be lossless and idempotent, with characteristic
// times preserved exactly (the arena pass and the tree pass share iteration
// order, so the sums match bit for bit).
func FuzzArenaRoundTrip(f *testing.F) {
	seeds := []string{
		fig7Deck,
		".input a\nR1 a b 1\nC1 b 0 2p\n.output b\n",
		"U1 in far 3k 4u\nC9 far 0 1n\n",
		deepChainDeck(80),
		wideFanoutDeck(60),
	}
	seeds = append(seeds, separatorSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := Parse(src)
		if err != nil {
			return
		}
		a := rctree.NewArena(tree)
		back, err := a.Materialize()
		if err != nil {
			t.Fatalf("materialize failed for accepted tree: %v\ndeck:\n%s", err, src)
		}
		a2 := rctree.NewArena(back)
		if !reflect.DeepEqual(a, a2) {
			t.Fatalf("arena round trip not idempotent:\n%s", src)
		}
		var s rctree.Scratch
		for _, e := range tree.Outputs() {
			want, err := tree.CharacteristicTimes(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.TimesInto(int32(e), &s)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("arena times diverged at output %d: %+v vs %+v\ndeck:\n%s", e, got, want, src)
			}
		}
	})
}

// FuzzParseValue: no panics, and suffix math stays finite for finite input.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"1", "1.5k", "2meg", "-3u", "4n", "x", "1e309", "0.1f", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseValue(s)
		if err != nil {
			return
		}
		if math.IsNaN(v) {
			t.Fatalf("ParseValue(%q) = NaN without error", s)
		}
	})
}
