// Clock tree: certify the skew of a binary H-tree clock distribution — the
// highest-volume application RC-tree timing bounds ever had. For the
// symmetric tree the certified skew interval is centered on zero; a single
// unbalanced leaf load shows up immediately.
package main

import (
	"fmt"
	"log"

	rcdelay "repro"
	"repro/internal/core"
	"repro/internal/htree"
)

func main() {
	cfg := htree.Config{
		Levels: 4,                  // 16 leaves
		TrunkR: 720, TrunkC: 0.044, // §V poly trunk (ohms, pF -> ps)
		DriverR: 380, DriverC: 0.04, // superbuffer clock buffer
		LeafC: 0.013,
	}
	tree, err := htree.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	results, err := rcdelay.Analyze(tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("H-tree with %d leaves, %d tree nodes\n",
		htree.Leaves(cfg.Levels), tree.NumNodes())

	first := results[0]
	fmt.Printf("per-leaf: TD=%.1f ps, crossing 0.5 within [%.1f, %.1f] ps\n",
		first.Times.TD, first.Bounds.TMin(0.5), first.Bounds.TMax(0.5))

	worst, err := core.WorstSkew(results, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certified worst skew over all %d leaf pairs: %.1f ps\n",
		len(results)*(len(results)-1)/2, worst)
	fmt.Println("(for a symmetric tree this equals one leaf's uncertainty window:")
	fmt.Printf(" window = %.1f ps)\n", first.Bounds.TMax(0.5)-first.Bounds.TMin(0.5))

	// Verify by exact simulation that the true skew really is zero.
	sim, err := rcdelay.SimulateStep(tree, 8)
	if err != nil {
		log.Fatal(err)
	}
	c0, err := sim.CrossingTime(results[0].Output, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	cLast, err := sim.CrossingTime(results[len(results)-1].Output, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact simulated crossings: first leaf %.2f ps, last leaf %.2f ps (skew %.2g)\n",
		c0, cLast, cLast-c0)

	// Now unbalance one leaf by 50% extra load and watch the interval shift.
	slowTimes := first.Times
	slowTimes.TP *= 1.2
	slowTimes.TD *= 1.2
	slowTimes.TR *= 1.2
	slowBounds, err := core.New(slowTimes)
	if err != nil {
		log.Fatal(err)
	}
	slow := core.Result{Output: first.Output, Name: "loaded-leaf", Times: slowTimes, Bounds: slowBounds}
	sb, err := core.Skew(slow, results[1], 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after +20%% load on one leaf, its skew interval vs a clean leaf: [%.1f, %.1f] ps\n",
		sb.Min, sb.Max)
}
