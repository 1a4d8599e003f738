package fault

import "testing"

// planSeeds seed FuzzParsePlan and feed TestParsePlanGolden.
var planSeeds = []string{
	"",
	"none",
	"off",
	"drop-sa=0.1",
	"drop-sa=0.1,dup-sa=0.05,delay-sa=30us",
	"drop-wake=0.25,dup-wake=0.1,delay-wake=40us",
	"ack-loss=0.5,ack-delay=10us",
	"stale-runstate=200us",
	"tick-jitter=0.5",
	"stall-p=0.1,stall-for=200us",
	"blackout-every=50ms,blackout-for=2ms",
	LossPlan(0.1).String(),
	"drop-sa=1.5",
	"drop-sa=x",
	"delay-sa=-5us",
	"bogus=1",
	"drop-sa",
	"=,=,=",
	"drop-sa=0.1,drop-sa=0.2",
	"DROP-SA = 0.1 , TICK-JITTER = 1",
	"drop-sa=1e-300,delay-sa=9223372036854775807ns",
	"drop-sa=NaN",
}

// FuzzParsePlan asserts that arbitrary specs never panic and that any
// spec ParsePlan accepts survives a String → ParsePlan round trip.
func FuzzParsePlan(f *testing.F) {
	for _, s := range planSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) accepted invalid plan %+v: %v", spec, p, err)
		}
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) -> %q does not re-parse: %v", spec, p.String(), err)
		}
		if back != p {
			t.Fatalf("round trip of %q: %+v != %+v", spec, back, p)
		}
	})
}
