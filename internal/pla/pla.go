// Package pla reproduces the paper's §V application: bounding the delay of
// a polysilicon line driving the AND plane of a PLA, as a function of the
// number of minterms (Figures 12 and 13).
//
// The model follows the paper's APL PLALINE function: a superbuffer driver
// (380 Ω source resistance, 0.04 pF output capacitance) feeding a chain of
// sections, each section accounting for two minterms: a 24 µm inter-gate
// poly run (180 Ω, ~0.01 pF uniform line) in series with one 4 µm gate
// (30 Ω, ~0.013 pF uniform line) — "every second minterm has a transistor
// present".
//
// Units are ohms and picofarads throughout, so all times are picoseconds.
//
// OCR note (recorded in DESIGN.md §2): the scanned APL shows `URC 180
// 0.0107` and `URC 30 0.0134` where §V's prose gives 0.01 pF and 0.013 pF;
// this package uses the prose values by default and lets callers override
// them, and the Figure 13 claims hold either way.
package pla

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/mos"
	"repro/internal/rctree"
	"repro/internal/wire"
)

// Params collects the element values of one PLA line model.
type Params struct {
	Driver mos.Driver
	// InterGateR/C model the 24 µm poly run between adjacent gates.
	InterGateR, InterGateC float64
	// GateR/C model one transistor gate crossed by the poly line.
	GateR, GateC float64
}

// PaperParams returns the §V values: 380 Ω / 0.04 pF driver, 180 Ω /
// 0.01 pF inter-gate line, 30 Ω / 0.013 pF gate.
func PaperParams() Params {
	return Params{
		Driver:     mos.Superbuffer(),
		InterGateR: 180, InterGateC: 0.01,
		GateR: 30, GateC: 0.013,
	}
}

// ParamsFromTech derives the element values from process parameters and the
// §V geometry (24 µm × 4 µm inter-gate segments, 4 µm gates), instead of
// using the paper's rounded numbers. The driver stays the superbuffer.
func ParamsFromTech(tech wire.Tech) (Params, error) {
	if err := tech.Validate(); err != nil {
		return Params{}, err
	}
	segR, segC, err := tech.LineRC(wire.Segment{Layer: "poly", Length: 24 * wire.Micron, Width: 4 * wire.Micron})
	if err != nil {
		return Params{}, err
	}
	gateR, gateC, err := tech.GateRC(4 * wire.Micron)
	if err != nil {
		return Params{}, err
	}
	const toPF = 1e12
	return Params{
		Driver:     mos.Superbuffer(),
		InterGateR: segR, InterGateC: segC * toPF,
		GateR: gateR, GateC: gateC * toPF,
	}, nil
}

// Validate rejects non-physical parameter sets.
func (p Params) Validate() error {
	if err := p.Driver.Validate(); err != nil {
		return err
	}
	if p.InterGateR < 0 || p.InterGateC < 0 || p.GateR < 0 || p.GateC < 0 {
		return fmt.Errorf("pla: negative element value in %+v", p)
	}
	if p.InterGateR+p.GateR == 0 || p.InterGateC+p.GateC == 0 {
		return fmt.Errorf("pla: section has no resistance or no capacitance")
	}
	return nil
}

// Expr returns the paper's algebraic description of a PLA line with n
// minterms, mirroring the APL PLALINE loop exactly: the driver cascade
// followed by ceil(n/2) sections of (inter-gate line WC gate).
func Expr(p Params, minterms int) (algebra.Expr, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if minterms < 1 {
		return nil, fmt.Errorf("pla: minterms must be >= 1, got %d", minterms)
	}
	// Z <- (URC 380 0) WC URC 0 0.04
	e := algebra.Cascade(
		algebra.URCExpr{R: p.Driver.REff},
		algebra.URCExpr{C: p.Driver.COut},
	)
	// A <- (URC 180 0.01) WC URC 30 0.013 ; one section per two minterms.
	section := algebra.Cascade(
		algebra.URCExpr{R: p.InterGateR, C: p.InterGateC},
		algebra.URCExpr{R: p.GateR, C: p.GateC},
	)
	for n := minterms; n > 0; n -= 2 {
		e = algebra.WCExpr{A: e, B: section}
	}
	return e, nil
}

// Tree builds the same network as an rctree, with the far end of the line as
// the single output.
func Tree(p Params, minterms int) (*rctree.Tree, rctree.NodeID, error) {
	e, err := Expr(p, minterms)
	if err != nil {
		return nil, 0, err
	}
	return algebra.ToTree(e)
}

// Point is one sample of the Figure 13 sweep.
type Point struct {
	Minterms   int
	Times      rctree.Times
	TMin, TMax float64 // picoseconds, at the sweep threshold
}

// Sweep evaluates the delay bounds at the given threshold for each minterm
// count, reproducing Figure 13 (the paper uses threshold 0.7·VDD and
// minterm counts up to 100).
func Sweep(p Params, minterms []int, threshold float64) ([]Point, error) {
	if !(threshold > 0 && threshold < 1) { // also rejects NaN
		return nil, fmt.Errorf("pla: threshold must be in (0,1), got %g", threshold)
	}
	pts := make([]Point, 0, len(minterms))
	for _, n := range minterms {
		e, err := Expr(p, n)
		if err != nil {
			return nil, err
		}
		tm, err := e.Eval().Times()
		if err != nil {
			return nil, fmt.Errorf("pla: n=%d: %w", n, err)
		}
		b, err := core.New(tm)
		if err != nil {
			return nil, fmt.Errorf("pla: n=%d: %w", n, err)
		}
		pts = append(pts, Point{
			Minterms: n,
			Times:    tm,
			TMin:     b.TMin(threshold),
			TMax:     b.TMax(threshold),
		})
	}
	return pts, nil
}

// DefaultMinterms is the Figure 13 x-axis: even counts from 2 to 100 (the
// log-log plot runs 2..100; sections cover two minterms each).
func DefaultMinterms() []int {
	var ns []int
	for n := 2; n <= 100; n += 2 {
		ns = append(ns, n)
	}
	return ns
}
