package hypervisor

import "testing"

// TestParseStrategyInvertsString: every strategy's name parses back to
// it, and anything else is refused.
func TestParseStrategyInvertsString(t *testing.T) {
	for s := StrategyVanilla; s <= StrategyStrictCo; s++ {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"", "fifo", "IRS", "Strategy(0)"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) accepted", bad)
		}
	}
}
