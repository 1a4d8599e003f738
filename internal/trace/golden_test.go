package trace_test

import (
	"strings"
	"testing"

	"repro/internal/kv/kvtest"
	"repro/internal/trace"
)

// TestParseKindsGolden pins ParseKinds's accept set and the kinds each
// accepted filter selects, in display order ("-" for no filter).
func TestParseKindsGolden(t *testing.T) {
	inputs := []string{
		"", " ", " sa, migrate ", "sa,bogus", "vcpu", "switch", "sa", "task", "migrate", "note",
		"sa,,migrate", "sa,", ",", ",sa", "sa,sa", "SA", "vcpu,switch,sa,task,migrate,note",
	}
	kvtest.Golden(t, "testdata/kinds.golden", *update, func(s string) (string, error) {
		m, err := trace.ParseKinds(s)
		if m == nil {
			return "-", err
		}
		var names []string
		for k := trace.KindVCPUState; k <= trace.KindNote; k++ {
			if m[k] {
				names = append(names, k.String())
			}
		}
		return strings.Join(names, ","), err
	}, inputs)
}
