package timing

import (
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
)

// mounted lists the nets whose EditTree s has mounted.
func mounted(s *Session) []string {
	var names []string
	for i, et := range s.trees {
		if et != nil {
			names = append(names, s.g.nodes[i].name)
		}
	}
	return names
}

// assertDeck checks that the incremental deck renders what a full render of
// Design gives.
func assertDeck(t *testing.T, s *Session, label string) {
	t.Helper()
	d, err := s.Design()
	if err != nil {
		t.Fatalf("%s: Design: %v", label, err)
	}
	deck, err := s.AppendDeck(nil)
	if err != nil {
		t.Fatalf("%s: AppendDeck: %v", label, err)
	}
	if string(deck) != netlist.WriteDesign(d) {
		t.Fatalf("%s: AppendDeck differs from WriteDesign(Design())", label)
	}
}

// TestSessionMountsOnFirstEdit: a session mounts no EditTree until an edit
// (or a ViewNetTree) reaches a net. Reads, guard refusals and clones of an
// unmounted net read the graph's tree and mount nothing; Design hands out
// the graph's own trees; the deck of an unedited session is the design's.
func TestSessionMountsOnFirstEdit(t *testing.T) {
	d := randnet.DesignSeed(3, randnet.DefaultDesignConfig(3, 3))
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e3})
	if m := mounted(s); len(m) != 0 {
		t.Fatalf("a new session mounted %v", m)
	}
	got, err := s.Design()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Nets {
		if got.Nets[i].Tree != d.Nets[i].Tree {
			t.Fatalf("Design rebuilt the unedited net %s", got.Nets[i].Name)
		}
	}
	deck, err := s.AppendDeck(nil)
	if err != nil || string(deck) != netlist.WriteDesign(d) {
		t.Fatalf("unedited deck differs from the design's (%v)", err)
	}

	// The stage-tapped output of a driving net: both guards refuse it
	// without mounting the net.
	st := d.Stages[0]
	for _, e := range []Edit{
		{Op: "removeOutput", Net: st.FromNet, Node: st.FromOutput},
		{Op: "prune", Net: st.FromNet, Node: st.FromOutput},
	} {
		if _, err := s.Apply([]Edit{e}); err == nil || !strings.Contains(err.Error(), "tapped by a stage") {
			t.Fatalf("%s of a tapped output: %v", e.Op, err)
		}
	}
	if got := s.ProtectedOutputs(st.FromNet); len(got) == 0 {
		t.Fatalf("ProtectedOutputs(%s) is empty", st.FromNet)
	}
	if _, ok := s.CloneNetTree(st.FromNet); !ok {
		t.Fatal("CloneNetTree of an unmounted net failed")
	}
	if m := mounted(s); len(m) != 0 {
		t.Fatalf("refusals and a clone mounted %v", m)
	}

	if _, err := s.Apply([]Edit{{Op: "scaleDriver", Net: "l1n1", Factor: f64(0.8)}}); err != nil {
		t.Fatal(err)
	}
	if m := mounted(s); len(m) != 1 || m[0] != "l1n1" {
		t.Fatalf("one edit mounted %v, want [l1n1]", m)
	}
	assertDeck(t, s, "after one edit")
}

// TestForkRevertLazyMount: a fork mounts the nets it edits or views on its
// own side only, and Revert takes them back to unmounted, so the reverted
// fork prints as its parent does — the incremental deck included, which
// must re-render a net whose tree went from mounted back to the graph's.
// A parent's ViewNetTree mount is no state change: its forks still revert.
func TestForkRevertLazyMount(t *testing.T) {
	d := randnet.DesignSeed(4, randnet.DefaultDesignConfig(3, 3))
	s := newTestSession(t, d, Options{Threshold: 0.7, Required: 1e3})
	if _, err := s.Apply([]Edit{{Op: "scaleDriver", Net: "l0n0", Factor: f64(0.7)}}); err != nil {
		t.Fatal(err)
	}
	want := sessionPrint(t, s)
	f := s.Fork()
	for trial := 0; trial < 3; trial++ {
		if _, err := f.Apply([]Edit{
			{Op: "scaleDriver", Net: "l2n1", Factor: f64(0.5 + 0.1*float64(trial))},
			{Op: "scaleDriver", Net: "l0n0", Factor: f64(1.2)},
		}); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.ViewNetTree("l1n2"); !ok {
			t.Fatal("ViewNetTree failed")
		}
		if m := mounted(f); len(m) != 3 {
			t.Fatalf("trial %d: fork mounted %v, want l0n0, l1n2 and l2n1", trial, m)
		}
		assertDeck(t, f, "trial")
		if m := mounted(s); len(m) != 1 || m[0] != "l0n0" {
			t.Fatalf("trial %d: the fork's mounts showed in the parent: %v", trial, m)
		}
		if err := f.Revert(); err != nil {
			t.Fatal(err)
		}
		if m := mounted(f); len(m) != 1 || m[0] != "l0n0" {
			t.Fatalf("trial %d: reverted fork mounts %v, want [l0n0]", trial, m)
		}
		if got := sessionPrint(t, f); got != want {
			t.Fatalf("trial %d: reverted fork differs from its parent at byte %d", trial, firstDiff([]byte(got), []byte(want)))
		}
	}
	if _, ok := s.ViewNetTree("l2n0"); !ok {
		t.Fatal("ViewNetTree failed")
	}
	if m := mounted(f); len(m) != 1 {
		t.Fatalf("the parent's view mounted on its fork: %v", m)
	}
	if err := f.Revert(); err != nil {
		t.Fatalf("a parent's ViewNetTree mount blocked Revert: %v", err)
	}
	if got := sessionPrint(t, s); got != want {
		t.Fatal("the parent moved under its fork's trials")
	}
}
