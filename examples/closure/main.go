// Closure: automated design-level timing repair. A chip whose sink endpoint
// misses its required time goes into the closure engine, which mines the
// failing cones for candidate moves (driver sizing, wire rebuffering, load
// trimming, stub pruning), evaluates them as what-if trials on a
// copy-on-write session fork, and accepts the best slack gain per unit
// cost until WNS reaches zero. The result is a replayable ECO edit list,
// the move-by-move trajectory, and the Pareto frontier of (cost, WNS)
// trade-offs the search visited — not just one greedy answer.
package main

import (
	"context"
	"fmt"
	"log"

	rcdelay "repro"
)

// The eco example's pipeline, before its fix: the sink endpoint fails by
// ~8 ps and bus_b carries an unused stub.
const chipDeck = `
.design demo
.net drv
.input in
R1 in o 380
C1 o 0 0.04
.output o
.endnet
.net bus_a
.input in
U1 in far 1800 0.11
C1 far 0 0.013
.output far
.endnet
.net bus_b
.input in
R1 in n1 120
C1 n1 0 0.05
R2 n1 far 300
C2 far 0 0.08
R3 n1 stub 90
C3 stub 0 0.02
.output far
.endnet
.net sink
.input in
R1 in o 220
C1 o 0 0.06
.output o
.endnet
.stage drv o bus_a 25
.stage drv o bus_b 25
.stage bus_b far sink 40
.require bus_a far 700
.require sink o 150
.end
`

func main() {
	design, err := rcdelay.ParseDesign(chipDeck)
	if err != nil {
		log.Fatal(err)
	}

	// Let the engine repair the chip. The zero options give a 32-move
	// budget and no cost ceiling; the accepted move sequence is
	// deterministic.
	report, err := rcdelay.CloseTiming(context.Background(), design, rcdelay.ClosureOptions{
		Timing: rcdelay.DesignOptions{Threshold: 0.7, K: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WNS %.4g -> %.4g in %d moves (cost %.4g, %d what-if trials)\n",
		report.InitialWNS, report.FinalWNS, len(report.Moves), report.Cost, report.Trials)
	for i, m := range report.Moves {
		fmt.Printf("  move %d: %-12s on %-6s cost %.4g -> WNS %.4g\n",
			i+1, m.Move.Kind, m.Move.Net, m.Move.Cost, m.WNS)
	}

	// The frontier is the cost/benefit curve behind the greedy path: every
	// point is a state no cheaper state out-performed.
	fmt.Println("\npareto frontier (cost -> WNS):")
	for _, p := range report.Pareto {
		fmt.Printf("  %8.4g -> %.4g\n", p.Cost, p.WNS)
	}

	// The accepted edits are ordinary ECO edits: replay them through a
	// fresh session (statime -eco would do the same) and confirm the
	// repair reproduces from scratch.
	edits, err := rcdelay.ParseEcoEdits(rcdelay.FormatEcoEdits(report.Edits))
	if err != nil {
		log.Fatal(err)
	}
	sess, err := rcdelay.NewDesignSession(context.Background(), design, rcdelay.DesignOptions{Threshold: 0.7, K: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Apply(edits)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplayed %d edits from scratch: WNS %.4g (engine claimed %.4g)\n",
		res.Applied, res.WNS, report.FinalWNS)
}
