package netlist_test

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
)

// signoffDesign is the 240-net × 60-node design (6 levels × 40 nets) of the
// sign-off benchmark shape.
func signoffDesign() *netlist.Design {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	return randnet.DesignSeed(1, cfg)
}

func BenchmarkParseDesign(b *testing.B) {
	deck := netlist.WriteDesign(signoffDesign())
	b.SetBytes(int64(len(deck)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := netlist.ParseDesign(deck); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteDesign(b *testing.B) {
	d := signoffDesign()
	b.SetBytes(int64(len(netlist.WriteDesign(d))))
	b.ReportAllocs()
	for b.Loop() {
		netlist.WriteDesign(d)
	}
}
