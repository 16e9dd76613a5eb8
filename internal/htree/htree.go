// Package htree generates H-tree clock-distribution networks — the canonical
// symmetric RC-tree workload. A level-k H-tree fans one driver out to 4^k
// leaf loads through a binary hierarchy of wire segments whose length halves
// every two levels, exactly the structure used to distribute clocks on the
// VLSI chips the paper targets.
//
// Because the topology is perfectly symmetric, every leaf must see identical
// characteristic times; the test suite uses that as a differential check on
// the timing engine, and the core.SkewBound of any leaf pair must collapse
// to the envelope width.
package htree

import (
	"fmt"

	"repro/internal/rctree"
)

// Config describes an H-tree.
type Config struct {
	// Levels is the number of binary splits; the tree drives 2^Levels leaves.
	Levels int
	// TrunkR and TrunkC are the electrical totals of the top-level trunk
	// segment; each deeper segment halves in length (half R, half C).
	TrunkR, TrunkC float64
	// DriverR and DriverC model the clock buffer (series R, output C).
	DriverR, DriverC float64
	// LeafC is the load at each leaf (latch/buffer input).
	LeafC float64
}

// Validate rejects non-physical configurations.
func (c Config) Validate() error {
	if c.Levels < 0 || c.Levels > 8 {
		return fmt.Errorf("htree: levels must be in [0,8], got %d (2^%d leaves)", c.Levels, c.Levels)
	}
	if c.TrunkR <= 0 || c.TrunkC < 0 {
		return fmt.Errorf("htree: trunk needs R > 0, C >= 0")
	}
	if c.DriverR <= 0 || c.DriverC < 0 || c.LeafC < 0 {
		return fmt.Errorf("htree: driver needs R > 0; capacitances must be nonnegative")
	}
	return nil
}

// Build constructs the H-tree; every leaf is a designated output.
func Build(cfg Config) (*rctree.Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := rctree.NewBuilder("clk")
	drv := b.Resistor(rctree.Root, "buf", cfg.DriverR)
	if cfg.DriverC > 0 {
		b.Capacitor(drv, cfg.DriverC)
	}
	var grow func(at rctree.NodeID, level int, r, c float64, name string)
	grow = func(at rctree.NodeID, level int, r, c float64, name string) {
		far := b.Line(at, name, r, c)
		if level == cfg.Levels {
			if cfg.LeafC > 0 {
				b.Capacitor(far, cfg.LeafC)
			}
			b.Output(far)
			return
		}
		// Two child branches per segment (the H splits in two at each end),
		// each half the electrical length.
		grow(far, level+1, r/2, c/2, name+"a")
		grow(far, level+1, r/2, c/2, name+"b")
	}
	grow(drv, 0, cfg.TrunkR, cfg.TrunkC, "h")
	return b.Build()
}

// Leaves returns the number of leaf loads of a level-k H-tree: 2^k branches
// after k splits of the binary recursion.
func Leaves(levels int) int {
	return 1 << levels
}
