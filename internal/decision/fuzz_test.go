package decision

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// querySeeds seed FuzzParseQuery and feed TestParseQueryGolden.
var querySeeds = []string{
	"",
	"all",
	"kind=place",
	"kind=place,route vm=t3 t>40ms",
	"kind=zone-pick,autoscale chooser=ctl winner=host2",
	"vm=srv0#2 t>1.5ms t<2s",
	"t<6s",
	"kind=boost,preempt vm=ant1",
}

// FuzzParseQuery pins the parser's two contracts: it never panics on
// arbitrary input, and every accepted query round-trips through its
// canonical String form to an identical Query.
func FuzzParseQuery(f *testing.F) {
	for _, s := range querySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q1, err := ParseQuery(s)
		if err != nil {
			return
		}
		canon := q1.String()
		q2, err := ParseQuery(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("round trip of %q: %+v != %+v", s, q1, q2)
		}
		if got := q2.String(); got != canon {
			t.Fatalf("String not a fixed point: %q -> %q", canon, got)
		}
	})
}

// FuzzParseKinds covers both kind-list grammars, decision.ParseKinds
// and trace.ParseKinds: neither panics, and every accepted list
// re-renders and re-parses to the same selection.
func FuzzParseKinds(f *testing.F) {
	for _, s := range []string{
		"", "all", "ctl", "route, place", "place,place", "bogus", "place,,route", "place,",
		"sa,migrate", " vcpu , note ", "sa,,migrate", ",", "sa,bogus",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if kinds, err := ParseKinds(s); err == nil {
			names := make([]string, len(kinds))
			for i, k := range kinds {
				names[i] = k.String()
			}
			back, err := ParseKinds(strings.Join(names, ","))
			if err != nil || !reflect.DeepEqual(back, kinds) {
				t.Fatalf("decision kinds %q: %v -> %v, %v", s, kinds, back, err)
			}
		}
		if m, err := trace.ParseKinds(s); err == nil && m != nil {
			var names []string
			for k := range m {
				names = append(names, k.String())
			}
			back, err := trace.ParseKinds(strings.Join(names, ","))
			if err != nil || !reflect.DeepEqual(back, m) {
				t.Fatalf("trace kinds %q: %v -> %v, %v", s, m, back, err)
			}
		}
	})
}
