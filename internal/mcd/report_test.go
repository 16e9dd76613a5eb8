package mcd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// summaryFmt is the one-Fprintf-per-row rendering Summary replaced, kept as
// the oracle its output must match byte for byte.
func summaryFmt(r *Report) string {
	var b strings.Builder
	name := r.Design
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "design %s: %d corners, %d samples/corner, threshold %g, seed %d\n",
		name, len(r.Corners), r.Samples, r.Threshold, r.Seed)
	fmt.Fprintf(&b, "variation: rSigma %g, cSigma %g", r.Variation.RSigma, r.Variation.CSigma)
	if r.Clipped > 0 {
		fmt.Fprintf(&b, " (%d clipped draws: low tail truncated, results biased up)", r.Clipped)
	}
	b.WriteByte('\n')
	if r.WorstCorner != "" {
		fmt.Fprintf(&b, "worst corner: %s\n", r.WorstCorner)
	}
	for i := range r.Corners {
		cr := &r.Corners[i]
		fmt.Fprintf(&b, "\ncorner %s (R x%g, C x%g): nominal WNS %s TNS %s",
			cr.Corner.Name, cr.Corner.RScale, cr.Corner.CScale,
			fmtG(cr.NominalWNS), fmtG(cr.NominalTNS))
		if cr.WNS != nil {
			fmt.Fprintf(&b, "   WNS mean %s std %s min %s", fmtG(cr.WNS.Mean), fmtG(cr.WNS.Std), fmtG(cr.WNS.Min))
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "%-12s %-10s %10s %10s %10s %10s %10s %10s %6s\n",
			"net", "output", "required", "nom.slack", "slk.mean", "slk.std", "slk.min", "arr.mean", "crit%")
		for _, e := range cr.Endpoints {
			mean, std, min := "-", "-", "-"
			if e.Slack != nil {
				mean, std, min = fmtG(e.Slack.Mean), fmtG(e.Slack.Std), fmtG(e.Slack.Min)
			}
			fmt.Fprintf(&b, "%-12s %-10s %10s %10s %10s %10s %10s %10s %6.1f\n",
				e.Net, e.Output, fmtG(e.Required), fmtG(e.NominalSlack),
				mean, std, min, fmtG(e.Arrival.Mean), 100*e.Criticality)
		}
	}
	return b.String()
}

// randomReport builds a report for Summary's tests: names of every width
// (multi-byte runes and invalid UTF-8 too) and values spanning zeros,
// signed zeros, infinities, NaN, huge and tiny magnitudes, and
// criticalities on %6.1f rounding boundaries. It has up to maxCorners
// corners of up to maxRows endpoints.
func randomReport(rng *rand.Rand, maxCorners, maxRows int) *Report {
	names := []string{"", "a", "net_0042", "exactly12chr", "thirteen_char", "ümlaut", "日本語ネット", "a\xffb", strings.Repeat("w", 40)}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e-300, 123456.5, -9.99999e9, 0.05}
	val := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(24)-8))
	}
	crits := []float64{0, 1, 0.0005, 0.00049999999, 0.00125, 1.0 / 3, 0.9995, math.NaN(), math.Inf(1), -0.0004}
	r := &Report{
		Design:    names[rng.Intn(len(names))],
		Threshold: rng.Float64(),
		Samples:   rng.Intn(1000),
		Seed:      rng.Int63(),
		Variation: Variation{RSigma: val(), CSigma: val()},
		Clipped:   rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		r.WorstCorner = names[rng.Intn(len(names))]
	}
	for c := rng.Intn(maxCorners + 1); c > 0; c-- {
		cr := CornerResult{
			Corner:     Corner{Name: names[rng.Intn(len(names))], RScale: val(), CScale: val()},
			NominalWNS: val(),
			NominalTNS: val(),
		}
		if rng.Intn(2) == 0 {
			cr.WNS = &Dist{Mean: val(), Std: val(), Min: val()}
		}
		for e := rng.Intn(maxRows + 1); e > 0; e-- {
			ed := EndpointDist{
				Net:          names[rng.Intn(len(names))],
				Output:       names[rng.Intn(len(names))],
				Required:     val(),
				NominalSlack: val(),
				Arrival:      Dist{Mean: val()},
				Criticality:  rng.Float64(),
			}
			if rng.Intn(3) == 0 {
				ed.Criticality = crits[rng.Intn(len(crits))]
			}
			if rng.Intn(3) > 0 {
				ed.Slack = &Dist{Mean: val(), Std: val(), Min: val()}
			}
			cr.Endpoints = append(cr.Endpoints, ed)
		}
		r.Corners = append(r.Corners, cr)
	}
	return r
}

// TestSummaryMatchesFmt renders random reports (see randomReport) through
// Summary and the fmt oracle.
func TestSummaryMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		r := randomReport(rng, 3, 29)
		if got, want := r.Summary(), summaryFmt(r); got != want {
			t.Fatalf("trial %d: Summary differs from the fmt rendering:\n got %q\nwant %q", trial, got, want)
		}
	}
}

// TestSummaryChunksMatchFmt: Summary splits each corner's rows into
// GOMAXPROCS chunks, so its bytes must not depend on GOMAXPROCS. At 1, 2
// and 7 it must equal the fmt rendering on random reports, including
// corners with fewer rows than chunks, and on an analyzed design.
func TestSummaryChunksMatchFmt(t *testing.T) {
	rep, err := Analyze(context.Background(), testDesign(t, 8, 5, 6), Options{
		Samples: 16, Seed: 8, Variation: Variation{RSigma: 0.05, CSigma: 0.05}, Required: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		for trial := 0; trial < 100; trial++ {
			r := rep
			if trial > 0 {
				r = randomReport(rng, 4, 3*procs)
			}
			if got, want := r.Summary(), summaryFmt(r); got != want {
				t.Fatalf("GOMAXPROCS %d trial %d: Summary differs from the fmt rendering:\n got %q\nwant %q", procs, trial, got, want)
			}
		}
	}
}
