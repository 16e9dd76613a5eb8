package rctree

import "fmt"

// LineProfile describes a nonuniform RC line by its per-unit-length
// resistance and capacitance at normalized position x in [0, 1] (0 at the
// end nearer the input).
type LineProfile func(x float64) (rPerLen, cPerLen float64)

// TaperedLine appends a nonuniform RC line of the given length, approximated
// by `segments` uniform URC sections whose values integrate the profile by
// the midpoint rule. The paper allows nonuniform lines in RC trees ("any
// resistor may be replaced by a distributed RC line... nonuniform RC lines
// may appear") but computes examples with uniform ones; this helper reduces
// the nonuniform case to the uniform primitive with O(1/segments²) accuracy
// in the characteristic times.
//
// It returns the far-end node. Intermediate nodes are named
// name.t1 … name.t(segments-1).
func (b *Builder) TaperedLine(parent NodeID, name string, length float64, segments int, profile LineProfile) NodeID {
	if length <= 0 || segments < 1 || profile == nil {
		return b.errf("rctree: tapered line %q needs positive length, segments >= 1 and a profile", name)
	}
	if name == "" {
		name = fmt.Sprintf("taper%d", len(b.c.Parent))
	}
	cur := parent
	h := length / float64(segments)
	for s := 0; s < segments; s++ {
		xMid := (float64(s) + 0.5) / float64(segments)
		rPer, cPer := profile(xMid)
		if rPer < 0 || cPer < 0 {
			return b.errf("rctree: tapered line %q has negative profile at x=%g", name, xMid)
		}
		if rPer == 0 && cPer == 0 {
			continue // electrically empty stretch
		}
		segName := fmt.Sprintf("%s.t%d", name, s+1)
		if s == segments-1 {
			segName = name
		}
		cur = b.Line(cur, segName, rPer*h, cPer*h)
	}
	return cur
}
