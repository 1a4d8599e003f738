package fault

import (
	"flag"
	"testing"

	"repro/internal/kv/kvtest"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/plan.golden")

// TestParsePlanGolden pins ParsePlan's accept set and the canonical
// String of every accepted plan over the fuzz seeds, the committed
// corpus, the unit-test inputs and probes of the field policy.
func TestParsePlanGolden(t *testing.T) {
	unit := []string{
		"  NONE  ",
		"drop-sa=0.1, dup-sa=0.05, delay-sa=30us, drop-wake=0.2, ack-loss=0.01, ack-delay=10us, stale-runstate=1ms, tick-jitter=0.25, stall-p=0.1, stall-for=200us, blackout-every=50ms, blackout-for=2ms",
		"delay-sa=zz",
		"blackout-every=1ms",
		"stall-p=0.5",
		Plan{DropSA: 0.25, DelayWake: 40 * sim.Microsecond, TickJitter: 0.5}.String(),
		Plan{BlackoutEvery: 100 * sim.Millisecond, BlackoutFor: sim.Millisecond}.String(),
	}
	probes := []string{
		"drop-sa=NaN",
		"drop-sa=+Inf",
		"tick-jitter=-Inf",
		"drop-sa=",
		"drop-sa=0.1,",
		",drop-sa=0.1",
		"drop-sa=0.1,,dup-sa=0.05",
		"Drop-SA=0.1,Delay-SA=30us",
		"OFF",
	}
	kvtest.Golden(t, "testdata/plan.golden", *update, func(s string) (string, error) {
		p, err := ParsePlan(s)
		return p.String(), err
	}, planSeeds, kvtest.Corpus(t, "FuzzParsePlan"), unit, probes)
}
