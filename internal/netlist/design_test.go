package netlist

import (
	"strings"
	"testing"
)

const demoDesign = `
* two inverter stages driving a fanout net
.design demo
.net drv
.input in
R1 in o 10
C1 o 0 5
.output o
.endnet
.net load
.input in
R1 in a 20
C1 a 0 3
R2 a b 5
C2 b 0 2
.output a b
.endnet
.stage drv o load 3.5
.require load a 400
.require load b 500
.end
`

func TestParseDesign(t *testing.T) {
	d, err := ParseDesign(demoDesign)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "demo" {
		t.Errorf("Name = %q", d.Name)
	}
	if len(d.Nets) != 2 || d.Nets[0].Name != "drv" || d.Nets[1].Name != "load" {
		t.Fatalf("nets = %+v", d.Nets)
	}
	if d.Net("drv") == nil || d.Net("load") == nil || d.Net("ghost") != nil {
		t.Error("Net lookup wrong")
	}
	if d.Nets[1].Tree.NumNodes() != 3 {
		t.Errorf("load nodes = %d", d.Nets[1].Tree.NumNodes())
	}
	if len(d.Stages) != 1 {
		t.Fatalf("stages = %+v", d.Stages)
	}
	s := d.Stages[0]
	if s.FromNet != "drv" || s.FromOutput != "o" || s.ToNet != "load" || s.Delay != 3.5 {
		t.Errorf("stage = %+v", s)
	}
	if len(d.Requires) != 2 || d.Requires[0].Time != 400 || d.Requires[1].Time != 500 {
		t.Errorf("requires = %+v", d.Requires)
	}
}

func TestParseDesignValueSuffixes(t *testing.T) {
	d, err := ParseDesign(`
.net a
R1 in o 1k
C1 o 0 2p
.output o
.endnet
.net b
R1 in o 1
C1 o 0 1
.output o
.endnet
.stage a o b 2n
.require b o 1u
`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stages[0].Delay != 2e-9 {
		t.Errorf("delay = %g", d.Stages[0].Delay)
	}
	if d.Requires[0].Time != 1e-6 {
		t.Errorf("require = %g", d.Requires[0].Time)
	}
}

func TestParseDesignErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no nets", ".end\n", "no nets"},
		{"unterminated net", ".net a\nR1 in o 1\n", "missing its .endnet"},
		{"nested net", ".net a\n.net b\n", ".net inside net"},
		{"stray endnet", ".endnet\n", ".endnet without .net"},
		{"dup net", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n", "already defined"},
		{"bad inner deck", ".net a\ngarbage\n.endnet\n", "unrecognized card"},
		{"bad stage arity", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a o\n", "stage card needs"},
		{"negative delay", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a o a -1\n", "negative stage delay"},
		{"unknown from net", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage x o a 1\n", "unknown net"},
		{"unknown to net", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a o x 1\n", "unknown net"},
		{"stage non-output", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a in a 1\n", "not a designated output"},
		{"require unknown net", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.require x o 1\n", "unknown net"},
		{"require non-output", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.require a in 1\n", "not a designated output"},
		{"bad require arity", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.require a o\n", "require card needs"},
		{"dup design name", ".design x\n.design y\n", "duplicate .design"},
		{"element at top level", "R1 in o 1\n", "unrecognized design card"},
		{"infinite require", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.require a o infinity\n", "non-finite"},
		// Lines inside a net are numbered as in the deck, comments and
		// blank lines included.
		{"inner line number", ".design x\n* c\n.net a\n* c1\n\n; c2\nR1 in o 1\nC1 o 0 1\nX9 o 0 1\n.output o\n.endnet\n",
			`design net "a" (line 3): netlist: line 9: unrecognized card "X9"`},
		{"inner build error line", ".net a\n\nR1 in o 1\nC1 o 0 1\nC2 zz 0 1\n.endnet\n", `line 5: capacitor node "zz"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDesign(tc.src)
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestWriteDesignRoundTrip(t *testing.T) {
	d, err := ParseDesign(demoDesign)
	if err != nil {
		t.Fatal(err)
	}
	deck := WriteDesign(d)
	back, err := ParseDesign(deck)
	if err != nil {
		t.Fatalf("written deck rejected: %v\n%s", err, deck)
	}
	if back.Name != d.Name || len(back.Nets) != len(d.Nets) ||
		len(back.Stages) != len(d.Stages) || len(back.Requires) != len(d.Requires) {
		t.Fatalf("round trip changed shape: %+v vs %+v", back, d)
	}
	for i := range d.Nets {
		if back.Nets[i].Name != d.Nets[i].Name {
			t.Errorf("net %d name %q -> %q", i, d.Nets[i].Name, back.Nets[i].Name)
		}
		if back.Nets[i].Tree.NumNodes() != d.Nets[i].Tree.NumNodes() {
			t.Errorf("net %q node count changed", d.Nets[i].Name)
		}
	}
	if back.Stages[0] != d.Stages[0] {
		t.Errorf("stage changed: %+v -> %+v", d.Stages[0], back.Stages[0])
	}
	// Writing the reparse must be byte-identical: the writer is canonical.
	if again := WriteDesign(back); again != deck {
		t.Errorf("writer not canonical:\n%s\nvs\n%s", deck, again)
	}
}

// TestWriteDesignGolden pins WriteDesign's bytes (the WAL snapshot and
// POST /design format): card numbering, value notation across magnitudes,
// sorted outputs, stages and requires.
func TestWriteDesignGolden(t *testing.T) {
	d, err := ParseDesign(`.design gold
.net drv
.input in
C0 in 0 1.5f
R1 in o 10k
C1 o 0 5e-15
U1 o far 2.5e20 3.25p
C2 far 0 0.1
.output far o
.endnet
.net load
R1 in a 1e-7
C1 a 0 3
.output a
.endnet
.stage drv far load 3.5
.stage drv o load 1e21
.require load a 400
.require drv o 1.25e-3
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	const want = `* design: 2 nets, 2 stages
.design gold
.net drv
* RC tree: 3 nodes
.input in
C1 in 0 1.5000000000000001e-15
R1 in o 10000
C2 o 0 5e-15
U1 o far 2.5e+20 3.25e-12
C3 far 0 0.1
.output far
.output o
.end
.endnet
.net load
* RC tree: 2 nodes
.input in
R1 in a 1e-07
C1 a 0 3
.output a
.end
.endnet
.stage drv far load 3.5
.stage drv o load 1e+21
.require drv o 0.00125
.require load a 400
.end
`
	if got := WriteDesign(d); got != want {
		t.Errorf("WriteDesign =\n%s\nwant:\n%s", got, want)
	}
}
