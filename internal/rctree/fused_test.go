package rctree_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/randnet"
	"repro/internal/rctree"
)

// allNodes lists every node of c as an output, root first.
func allNodes(c rctree.Columns) []int32 {
	outs := make([]int32, len(c.Parent))
	for i := range outs {
		outs[i] = int32(i)
	}
	return outs
}

// treeOutputs lists c's designated outputs as int32 node indices.
func treeOutputs(c rctree.Columns) []int32 {
	outs := make([]int32, len(c.Outputs))
	for i, o := range c.Outputs {
		outs[i] = int32(o)
	}
	return outs
}

// TestTimesFlatAllMatchesOracle is the fused kernel's property test: over
// randnet trees (line edges included), single-node nets, the root as an
// output (Ree = 0), nets with more than 64 outputs and a net big enough to
// narrow the sweeps, TimesFlatAll equals one per-output TimesFlat sweep per
// output with == on all four fields.
func TestTimesFlatAllMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s rctree.Scratch
	check := func(c rctree.Columns, outs []int32) {
		t.Helper()
		rctree.CheckTimesFlatAll(t, c.Parent, c.Kind, c.EdgeR, c.EdgeC, c.NodeC, outs, &s)
	}
	for trial := 0; trial < 400; trial++ {
		cfg := randnet.DefaultConfig(1 + rng.Intn(150))
		cfg.LineProb = rng.Float64()
		cfg.Chain = rng.Float64()
		a := randnet.Tree(rng, cfg).Columns()
		check(a, treeOutputs(a))
		all := allNodes(a) // the root (Ree = 0) plus, past 64 nodes, several sweeps
		check(a, all)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		check(a, append(all[:rng.Intn(len(all))+1], all[0])) // a duplicate output
	}
	// A single-node net: the root is its only node and only output.
	rctree.CheckTimesFlatAll(t, []int32{-1}, []uint8{0}, []float64{0}, []float64{0}, []float64{2}, []int32{0}, &s)
	// A bushy tree designating more than 64 leaves.
	wide := randnet.Tree(rng, randnet.Config{Nodes: 200, LineProb: 0.5, CapProb: 1}).Columns()
	if len(wide.Outputs) <= 64 {
		t.Fatalf("wide tree has only %d outputs", len(wide.Outputs))
	}
	check(wide, treeOutputs(wide))
	// A net large enough that the scratch budget narrows each sweep.
	big := randnet.Tree(rng, randnet.Config{Nodes: 5000, LineProb: 0.4, CapProb: 0.7, Chain: 0.9}).Columns()
	if len(big.Outputs) < 40 {
		t.Fatalf("big tree has only %d outputs", len(big.Outputs))
	}
	check(big, treeOutputs(big))
}

// TestTimesFlatAllErrorOrder pins the first-error contract: when the second
// output fails validation, TimesFlatAll reports one finished output and the
// exact error the per-output pass gives for the second.
func TestTimesFlatAllErrorOrder(t *testing.T) {
	// in -1Ω- b: a negative resistance makes b's Ree negative, while a
	// (R = 1, the only capacitance) is valid.
	parent := []int32{-1, 0, 0}
	kind := []uint8{0, uint8(rctree.EdgeResistor), uint8(rctree.EdgeResistor)}
	edgeR := []float64{0, 1, -1}
	edgeC := []float64{0, 0, 0}
	nodeC := []float64{0, 10, 0}
	var s rctree.Scratch
	dst := make([]rctree.Times, 2)
	done, err := rctree.TimesFlatAll(parent, kind, edgeR, edgeC, nodeC, []int32{1, 2}, dst, &s)
	if done != 1 || err == nil || !strings.Contains(err.Error(), "negative characteristic time") {
		t.Fatalf("TimesFlatAll = %d, %v; want 1 and a negative-time error", done, err)
	}
	if want := (rctree.Times{TP: 10, TD: 10, TR: 10, Ree: 1}); dst[0] != want {
		t.Fatalf("first output %+v, want %+v", dst[0], want)
	}
	_, werr := rctree.TimesFlat(parent, kind, edgeR, edgeC, nodeC, 2, &rctree.Scratch{})
	if werr == nil || werr.Error() != err.Error() {
		t.Fatalf("error %q, per-output pass gives %v", err, werr)
	}
	rctree.CheckTimesFlatAll(t, parent, kind, edgeR, edgeC, nodeC, []int32{1, 2}, &s)
	rctree.CheckTimesFlatAll(t, parent, kind, edgeR, edgeC, nodeC, []int32{1, 3, 2}, &s)
}
