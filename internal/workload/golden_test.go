package workload_test

import (
	"flag"
	"testing"

	"repro/internal/kv/kvtest"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/attack.golden")

// TestParseAttackGolden pins ParseAttack's accept set and the
// canonical String of every accepted spec over the fuzz seeds, the
// committed corpus, the unit-test inputs and probes of the field
// policy.
func TestParseAttackGolden(t *testing.T) {
	unit := []string{
		" NONE ",
		"tick-evade,margin=500µs,resume=100µs",
		"boost-game,run=900µs,sleep=100µs,jitter=0.1",
		"tick-evade,margin=-1ms",
		"boost-game,period=1ms,margin=2ms",
		"tick-evade,jitter=0.2",
	}
	probes := []string{
		"boost-game,jitter=NaN",
		"boost-game,jitter=-Inf",
		"tick-evade,",
		"tick-evade,,threads=2",
		"tick-evade,threads=",
		"Boost-Game,Run=2ms,JITTER=0.5",
		",tick-evade",
	}
	kvtest.Golden(t, "testdata/attack.golden", *update, func(s string) (string, error) {
		a, err := workload.ParseAttack(s)
		return a.String(), err
	}, attackSeeds, kvtest.Corpus(t, "FuzzParseAttack"), unit, probes)
}
