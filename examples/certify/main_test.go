package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	rcdelay "repro"
)

// TestRun drives the whole flow: the bounds leave at least one endpoint
// undecided, each undecided endpoint gets exactly one simulation, and none
// is left Unknown at the end.
func TestRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var n, unknown, finalPass, finalUnknown, finalFail int
	for _, line := range strings.Split(out, "\n") {
		var pass, fail int
		fmt.Sscanf(line, "endpoints: %d (%d pass, %d unknown, %d fail)", &n, &pass, &unknown, &fail)
		fmt.Sscanf(line, "Final verdicts: %d pass, %d unknown, %d fail", &finalPass, &finalUnknown, &finalFail)
	}
	if unknown == 0 {
		t.Fatalf("the bounds decided every endpoint; the escalation path is untested:\n%s", out)
	}
	if got := strings.Count(out, "exact crossing"); got != unknown {
		t.Errorf("%d simulations for %d undecided endpoints:\n%s", got, unknown, out)
	}
	if finalUnknown != 0 || finalPass+finalFail != n {
		t.Errorf("final verdicts %d pass, %d unknown, %d fail over %d endpoints:\n%s",
			finalPass, finalUnknown, finalFail, n, out)
	}
}

// TestSettle: an exact crossing inside the certified arrival interval
// decides the endpoint against its requirement; one outside it is refused.
func TestSettle(t *testing.T) {
	e := rcdelay.EndpointSlack{
		Net: "n", Output: "o", Required: 150, Verdict: rcdelay.Unknown,
		Arrival: rcdelay.ArrivalInterval{Min: 100, Max: 200},
	}
	for _, tc := range []struct {
		cross float64
		want  rcdelay.Verdict
	}{{100, rcdelay.Passes}, {150, rcdelay.Passes}, {180, rcdelay.Fails}, {200, rcdelay.Fails}} {
		if got, err := settle(e, tc.cross); err != nil || got != tc.want {
			t.Errorf("crossing %g: %v, %v; want %v", tc.cross, got, err, tc.want)
		}
	}
	for _, cross := range []float64{99, 201, math.NaN()} {
		if _, err := settle(e, cross); err == nil {
			t.Errorf("crossing %g outside [100, 200] accepted", cross)
		}
	}
}
