// Package waveform extends the step-response bounds to arbitrary monotone
// excitations, the generalization the paper's §VI sketches: "the results can
// be extended to upper and lower bounds for arbitrary excitation by use of
// the superposition integral."
//
// For an input u(t) that rises from 0 to 1 with nondecreasing slope pattern
// (any piecewise-linear nondecreasing u), the output is the superposition
//
//	v(t) = ∫₀ᵗ u'(τ)·s(t−τ) dτ
//
// where s is the unit-step response. Because u' ≥ 0, replacing s by its
// lower/upper bound produces valid lower/upper bounds on v. The integral is
// evaluated in closed form per linear segment for exact modal responses, and
// by fine fixed-step Simpson quadrature for the bound envelope.
package waveform

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
)

// PWL is a piecewise-linear waveform through the breakpoints (T[i], V[i]).
// T must be strictly increasing; before T[0] the value is V[0], after the
// last breakpoint it stays at the final value.
type PWL struct {
	T, V []float64
}

// Step returns the unit step (as a degenerate PWL with an immediate rise).
func Step() PWL { return PWL{T: []float64{0}, V: []float64{1}} }

// Ramp returns a 0→1 ramp of the given rise time.
func Ramp(rise float64) PWL {
	if rise <= 0 {
		return Step()
	}
	return PWL{T: []float64{0, rise}, V: []float64{0, 1}}
}

// Validate checks breakpoint ordering and monotonicity (required for the
// bound superposition to be valid).
func (p PWL) Validate() error {
	if len(p.T) == 0 || len(p.T) != len(p.V) {
		return fmt.Errorf("waveform: PWL needs equal, nonzero T and V lengths")
	}
	for i := 1; i < len(p.T); i++ {
		if p.T[i] <= p.T[i-1] {
			return fmt.Errorf("waveform: breakpoints not strictly increasing at %d", i)
		}
		if p.V[i] < p.V[i-1] {
			return fmt.Errorf("waveform: PWL not nondecreasing at %d; bound superposition requires u' >= 0", i)
		}
	}
	return nil
}

// At evaluates the waveform.
func (p PWL) At(t float64) float64 {
	if len(p.T) == 0 {
		return 0
	}
	if t <= p.T[0] {
		if t == p.T[0] {
			return p.V[0]
		}
		return p.V[0] * 0 // before the first breakpoint the input is still 0
	}
	for i := 1; i < len(p.T); i++ {
		if t <= p.T[i] {
			f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
			return p.V[i-1] + f*(p.V[i]-p.V[i-1])
		}
	}
	return p.V[len(p.V)-1]
}

// segments yields the linear pieces as (t0, t1, slope) triples, including
// an initial jump at T[0] if V[0] > 0 (treated as an ideal step of height
// V[0] at T[0]).
type segment struct {
	t0, t1, slope float64
}

func (p PWL) jumps() (stepAt, stepHeight float64, segs []segment) {
	stepAt, stepHeight = p.T[0], p.V[0]
	for i := 1; i < len(p.T); i++ {
		slope := (p.V[i] - p.V[i-1]) / (p.T[i] - p.T[i-1])
		if slope != 0 {
			segs = append(segs, segment{p.T[i-1], p.T[i], slope})
		}
	}
	return stepAt, stepHeight, segs
}

// ResponseBounds evaluates lower and upper bounds on the response to input
// p at time t by superposition over the Penfield–Rubinstein step envelope.
// quad controls the Simpson subdivisions per linear segment (>= 2;
// defaulted to 64 when smaller).
func ResponseBounds(b *core.Bounds, p PWL, t float64, quad int) (lo, hi float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	if quad < 2 {
		quad = 64
	}
	stepAt, stepHeight, segs := p.jumps()
	// Ideal-step component.
	lo = stepHeight * b.VMin(t-stepAt)
	hi = stepHeight * b.VMax(t-stepAt)
	// Ramp components: ∫ slope · s(t−τ) dτ over [t0, min(t1, t)].
	for _, s := range segs {
		upper := math.Min(s.t1, t)
		if upper <= s.t0 {
			continue
		}
		lo += s.slope * simpson(func(tau float64) float64 { return b.VMin(t - tau) }, s.t0, upper, quad)
		hi += s.slope * simpson(func(tau float64) float64 { return b.VMax(t - tau) }, s.t0, upper, quad)
	}
	return clamp01(lo), clamp01(hi), nil
}

// ExactResponse evaluates the exact response of circuit unknown i to input
// p at time t, in closed form, from the modal step response
// s(t) = 1 + Σ A·e^(−λt):
//
//	∫ₐᵇ m·s(t−τ) dτ = m·[ (b−a) + Σ (A/λ)(e^(−λ(t−b)) − e^(−λ(t−a))) ]
func ExactResponse(r *sim.Response, i int, p PWL, t float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	stepAt, stepHeight, segs := p.jumps()
	v := stepHeight * stepResponse(r, i, t-stepAt)
	for _, s := range segs {
		bEnd := math.Min(s.t1, t)
		if bEnd <= s.t0 {
			continue
		}
		contrib := bEnd - s.t0
		for m, lam := range r.Lambda {
			contrib += r.A[i][m] / lam * (math.Exp(-lam*(t-bEnd)) - math.Exp(-lam*(t-s.t0)))
		}
		v += s.slope * contrib
	}
	return v, nil
}

func stepResponse(r *sim.Response, i int, t float64) float64 {
	if t < 0 {
		return 0
	}
	return r.Voltage(i, t)
}

// CrossingBounds brackets the time at which the response to input p crosses
// threshold vth: the lower bound comes from the upper response bound, the
// upper from the lower response bound, each located by bisection over
// [0, horizon]. A returned upper bound of +Inf means the lower envelope
// never reaches the threshold within the horizon.
func CrossingBounds(b *core.Bounds, p PWL, vth, horizon float64, quad int) (tLo, tHi float64, err error) {
	if !(vth > 0 && vth < 1) {
		return 0, 0, fmt.Errorf("waveform: threshold %g outside (0,1)", vth)
	}
	if horizon <= 0 {
		return 0, 0, fmt.Errorf("waveform: horizon must be positive")
	}
	hiAt := func(t float64) float64 { _, hi, _ := ResponseBounds(b, p, t, quad); return hi }
	loAt := func(t float64) float64 { lo, _, _ := ResponseBounds(b, p, t, quad); return lo }
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	tLo = bisectRising(hiAt, vth, horizon)
	tHi = bisectRising(loAt, vth, horizon)
	return tLo, tHi, nil
}

// bisectRising finds the first crossing of a nondecreasing function, or +Inf
// if f(horizon) < target.
func bisectRising(f func(float64) float64, target, horizon float64) float64 {
	if f(0) >= target {
		return 0
	}
	if f(horizon) < target {
		return math.Inf(1)
	}
	lo, hi := 0.0, horizon
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if f(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for k := 1; k < n; k++ {
		x := a + float64(k)*h
		if k%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
