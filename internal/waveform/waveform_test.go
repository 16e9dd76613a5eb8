package waveform

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/randnet"
	"repro/internal/rctree"
	"repro/internal/sim"
)

func TestPWLBasics(t *testing.T) {
	r := Ramp(10)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[float64]float64{-1: 0, 0: 0, 5: 0.5, 10: 1, 99: 1}
	for tt, want := range cases {
		if got := r.At(tt); math.Abs(got-want) > 1e-12 {
			t.Errorf("Ramp(10).At(%g) = %g, want %g", tt, got, want)
		}
	}
	s := Step()
	if s.At(0) != 1 || s.At(5) != 1 || s.At(-1) != 0 {
		t.Error("Step values wrong")
	}
	if Ramp(0).At(0) != 1 {
		t.Error("zero-rise ramp should be a step")
	}
}

func TestPWLValidate(t *testing.T) {
	bad := []PWL{
		{},
		{T: []float64{0, 1}, V: []float64{0}},
		{T: []float64{0, 0}, V: []float64{0, 1}},
		{T: []float64{0, 1}, V: []float64{1, 0}}, // decreasing
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func singleRC(t *testing.T) (*rctree.Tree, rctree.NodeID) {
	t.Helper()
	b := rctree.NewBuilder("in")
	n := b.Resistor(rctree.Root, "out", 1000)
	b.Capacitor(n, 1e-3) // tau = 1
	b.Output(n)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr, n
}

// TestExactRampSinglePole: the closed-form PWL response of a one-pole
// circuit to a ramp matches the textbook answer
//
//	v(t) = (t − tau(1 − e^(−t/tau)))/T            for t <= T
//	v(t) = 1 − (tau/T)(e^(−(t−T)/tau) − e^(−t/tau))  for t > T
func TestExactRampSinglePole(t *testing.T) {
	tr, out := singleRC(t)
	ckt, err := sim.NewCircuit(tr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ckt.EigenResponse()
	if err != nil {
		t.Fatal(err)
	}
	i, _ := ckt.Index(out)
	const T = 2.0 // rise time, tau = 1
	ramp := Ramp(T)
	for _, tt := range []float64{0.2, 1, 2, 3, 5} {
		got, err := ExactResponse(resp, i, ramp, tt)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		if tt <= T {
			want = (tt - (1 - math.Exp(-tt))) / T
		} else {
			want = 1 - (math.Exp(-(tt-T))-math.Exp(-tt))/T
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("v(%g) = %.12f, want %.12f", tt, got, want)
		}
	}
}

// TestStepPWLEqualsStepResponse: feeding the degenerate step PWL through the
// superposition machinery reproduces the plain step response and bounds.
func TestStepPWLEqualsStepResponse(t *testing.T) {
	tr, out := singleRC(t)
	ckt, _ := sim.NewCircuit(tr)
	resp, err := ckt.EigenResponse()
	if err != nil {
		t.Fatal(err)
	}
	i, _ := ckt.Index(out)
	tm, _ := tr.CharacteristicTimes(out)
	b := core.MustNew(tm)
	for _, tt := range []float64{0.1, 0.7, 2} {
		got, err := ExactResponse(resp, i, Step(), tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := resp.Voltage(i, tt); math.Abs(got-want) > 1e-12 {
			t.Errorf("step PWL v(%g) = %g, want %g", tt, got, want)
		}
		lo, hi, err := ResponseBounds(b, Step(), tt, 16)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lo-b.VMin(tt)) > 1e-12 || math.Abs(hi-b.VMax(tt)) > 1e-12 {
			t.Errorf("step PWL bounds (%g,%g) != (%g,%g)", lo, hi, b.VMin(tt), b.VMax(tt))
		}
	}
}

// TestRampBoundsBracketExact: DESIGN E10 — on random lumped trees, the
// superposed bound envelope brackets the exact ramp response.
func TestRampBoundsBracketExact(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		cfg := randnet.DefaultConfig(1 + rng.Intn(12))
		cfg.LineProb = 0
		tr := randnet.Tree(rng, cfg)
		ckt, err := sim.NewCircuit(tr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ckt.EigenResponse()
		if err != nil {
			t.Fatal(err)
		}
		tp := tr.TPTotal()
		ramp := Ramp(tp / 2)
		for _, e := range tr.Outputs() {
			tm, err := tr.CharacteristicTimes(e)
			if err != nil {
				t.Fatal(err)
			}
			b := core.MustNew(tm)
			i, _ := ckt.Index(e)
			for s := 1; s <= 12; s++ {
				tt := tp * 3 * float64(s) / 12
				exact, err := ExactResponse(resp, i, ramp, tt)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi, err := ResponseBounds(b, ramp, tt, 128)
				if err != nil {
					t.Fatal(err)
				}
				// Simpson quadrature error allowance.
				if exact < lo-1e-5 || exact > hi+1e-5 {
					t.Fatalf("trial %d output %q t=%g: exact %.8f outside [%.8f, %.8f]",
						trial, tr.Name(e), tt, exact, lo, hi)
				}
			}
		}
	}
}

// TestMultiSegmentPWL exercises a three-piece input (slow start, fast
// middle, plateau) against quadrature of the exact response.
func TestMultiSegmentPWL(t *testing.T) {
	tr, out := singleRC(t)
	ckt, _ := sim.NewCircuit(tr)
	resp, err := ckt.EigenResponse()
	if err != nil {
		t.Fatal(err)
	}
	i, _ := ckt.Index(out)
	in := PWL{T: []float64{0, 1, 1.5, 4}, V: []float64{0, 0.2, 0.9, 1}}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reference by dense numeric superposition of the exact step response.
	ref := func(tt float64) float64 {
		const n = 20000
		var sum float64
		for k := 0; k < n; k++ {
			tau0 := tt * float64(k) / n
			tau1 := tt * float64(k+1) / n
			du := in.At(tau1) - in.At(tau0)
			sum += du * resp.Voltage(i, tt-(tau0+tau1)/2)
		}
		return sum
	}
	for _, tt := range []float64{0.5, 1.2, 2, 5} {
		got, err := ExactResponse(resp, i, in, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref(tt); math.Abs(got-want) > 2e-4 {
			t.Errorf("v(%g) = %g, numeric reference %g", tt, got, want)
		}
	}
}

// TestCrossingBounds: ramp-input crossing bounds bracket the exact ramp
// crossing and collapse toward the step bounds as rise time shrinks.
func TestCrossingBounds(t *testing.T) {
	tr, out := singleRC(t)
	ckt, _ := sim.NewCircuit(tr)
	resp, err := ckt.EigenResponse()
	if err != nil {
		t.Fatal(err)
	}
	i, _ := ckt.Index(out)
	tm, _ := tr.CharacteristicTimes(out)
	b := core.MustNew(tm)

	ramp := Ramp(2.0)
	tLo, tHi, err := CrossingBounds(b, ramp, 0.5, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Exact crossing by bisection on the closed-form ramp response.
	exact := bisectRising(func(tt float64) float64 {
		v, _ := ExactResponse(resp, i, ramp, tt)
		return v
	}, 0.5, 50)
	if exact < tLo-1e-6 || exact > tHi+1e-6 {
		t.Errorf("exact ramp crossing %g outside [%g, %g]", exact, tLo, tHi)
	}
	// For a single pole the bounds are exact: the bracket is tight.
	if tHi-tLo > 1e-3*(1+exact) {
		t.Errorf("single-pole ramp bracket should be tight: [%g, %g]", tLo, tHi)
	}

	if _, _, err := CrossingBounds(b, ramp, 0, 50, 8); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, _, err := CrossingBounds(b, ramp, 0.5, 0, 8); err == nil {
		t.Error("zero horizon accepted")
	}
	// Unreachable threshold within the horizon returns +Inf upper bound.
	_, tHiInf, err := CrossingBounds(b, ramp, 0.999, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tHiInf, 1) {
		t.Errorf("tHi = %g, want +Inf for unreachable threshold", tHiInf)
	}
}

func TestResponseBoundsValidation(t *testing.T) {
	tm := rctree.Times{TP: 3, TD: 2, TR: 1, Ree: 1}
	b := core.MustNew(tm)
	if _, _, err := ResponseBounds(b, PWL{}, 1, 8); err == nil {
		t.Error("empty PWL accepted")
	}
	if _, err := ExactResponse(&sim.Response{}, 0, PWL{}, 1); err == nil {
		t.Error("ExactResponse accepted empty PWL")
	}
}

// TestCrossingBoundsThreshold: every threshold outside the open interval
// (0,1), NaN included, is refused; there is no default, so 0 is too.
func TestCrossingBoundsThreshold(t *testing.T) {
	tr, out := singleRC(t)
	tm, _ := tr.CharacteristicTimes(out)
	b := core.MustNew(tm)
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"one", 1},
		{"negative", -0.1},
		{"zero", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := CrossingBounds(b, Ramp(2), tc.v, 50, 8); err == nil {
				t.Errorf("threshold %g accepted", tc.v)
			}
		})
	}
}
