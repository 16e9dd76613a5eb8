package timing

import "repro/internal/incr"

// RandomBatch exposes randomBatch to the external tests in scaled_test.go,
// which import mcd (and mcd imports timing).
var RandomBatch = randomBatch

// netTree returns net i's current tree for the test edit generators without
// mounting it: the session's EditTree, or a throwaway overlay on the graph's
// tree for a net no edit has reached.
func (s *Session) netTree(i int) *incr.EditTree {
	if et := s.trees[i]; et != nil {
		return et
	}
	return incr.New(s.g.nodes[i].tree)
}
