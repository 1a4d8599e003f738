package workload_test

import (
	"testing"

	"repro/internal/workload"
)

// attackSeeds seed FuzzParseAttack and feed TestParseAttackGolden.
var attackSeeds = []string{
	"",
	"none",
	"off",
	"tick-evade",
	"boost-game",
	"tick-evade,margin=500us,resume=100us",
	"tick-evade,period=10ms,margin=1ms,threads=2",
	"boost-game,run=900us,sleep=100us,jitter=0.1",
	"boost-game,run=2ms,sleep=50us,threads=4",
	"TICK-EVADE, margin = 1ms ",
	"tick-evade,margin=9ms,resume=2ms",
	"tick-evade,margin",
	"tick-evade,margin=xyz",
	"tick-evade,margin=1ms,margin=2ms",
	"tick-evade,bogus=1",
	"tick-evade,threads=-1",
	"tick-evade,jitter=1.5",
	"frobnicate",
	"=,=,=",
	"tick-evade,period=9223372036854775807ns,margin=1ns",
	"boost-game,jitter=NaN",
}

// FuzzParseAttack asserts that arbitrary attacker specs never panic and
// that any spec ParseAttack accepts is valid and survives a String →
// ParseAttack round trip.
func FuzzParseAttack(f *testing.F) {
	for _, s := range attackSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := workload.ParseAttack(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseAttack(%q) accepted invalid spec %+v: %v", spec, s, err)
		}
		back, err := workload.ParseAttack(s.String())
		if err != nil {
			t.Fatalf("ParseAttack(%q) -> %q does not re-parse: %v", spec, s.String(), err)
		}
		if back != s {
			t.Fatalf("round trip of %q: %+v != %+v", spec, back, s)
		}
	})
}
