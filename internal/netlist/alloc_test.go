package netlist_test

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
)

// designDeck renders the sign-off shape (240 nets in 6 levels of 40) with
// nodes non-input nodes per net.
func designDeck(nodes int) string {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(nodes)
	return netlist.WriteDesign(randnet.DesignSeed(1, cfg))
}

// TestParseDesignAllocsScaleWithNets: a net's tree is built in presized
// columns, so ParseDesign allocates per net, not per node. Doubling every
// net from 30 to 60 nodes must move allocs/op by less than 5%.
func TestParseDesignAllocsScaleWithNets(t *testing.T) {
	allocs := func(nodes int) float64 {
		deck := designDeck(nodes)
		return testing.AllocsPerRun(5, func() {
			if _, err := netlist.ParseDesign(deck); err != nil {
				t.Fatal(err)
			}
		})
	}
	a30, a60 := allocs(30), allocs(60)
	t.Logf("allocs/op: %v at 30 nodes per net, %v at 60", a30, a60)
	if a60 > 1.05*a30 || a60 < 0.95*a30 {
		t.Fatalf("ParseDesign allocs/op: %v at 30 nodes per net, %v at 60; want within 5%%", a30, a60)
	}
}
