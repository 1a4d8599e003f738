package decision

import (
	"strings"
	"testing"

	"repro/internal/kv/kvtest"
)

// TestParseQueryGolden pins ParseQuery's accept set and the canonical
// String of every accepted query over the fuzz seeds, the committed
// corpus, the unit-test inputs and probes of the field policy.
func TestParseQueryGolden(t *testing.T) {
	unit := []string{
		"kind=place vm=t3 t>40ms", "  ", "kind=route,place chooser=ctl winner=host2 t<6s",
		"kind=place,route,boost vm=srv0", "chooser=host3 t>1.5ms t<2s", "winner=z1",
		"kind=bogus", "kind=place,place", "vm=", "unknownkey=x", "vm=a vm=b",
		"t>oops", "t>-5ms", "t>2s t<1s", "t>1s t<1s", "noequals",
		"kind=place", "vm=srv0", "vm=srv0#2", "chooser=host1", "winner=host1",
		"t>10ms", "t<50ms", "t>10ms t<90ms", "kind=route vm=srv0 chooser=ctl", "vm=ant1 kind=place",
	}
	probes := []string{
		"KIND=place",
		"Vm=SRV0 Chooser=ctl",
		"kind=place,",
		"kind=,place",
		"kind=Place",
		"vm=a=b",
		"t>1s t>2s",
		"=x",
	}
	kvtest.Golden(t, "testdata/query.golden", *update, func(s string) (string, error) {
		q, err := ParseQuery(s)
		return q.String(), err
	}, querySeeds, kvtest.Corpus(t, "FuzzParseQuery"), unit, probes)
}

// TestParseKindsGolden pins ParseKinds's accept set and the kinds each
// accepted list selects, in enum order.
func TestParseKindsGolden(t *testing.T) {
	inputs := []string{
		"", "all", "ctl", " all ", "route, place", "bogus", "route,,place",
		"place,", ",place", "place,place", "boost,preempt,zone-pick", "Place", "all,place",
	}
	kvtest.Golden(t, "testdata/kinds.golden", *update, func(s string) (string, error) {
		ks, err := ParseKinds(s)
		names := make([]string, len(ks))
		for i, k := range ks {
			names[i] = k.String()
		}
		return strings.Join(names, ","), err
	}, inputs)
}
