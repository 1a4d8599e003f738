package watch

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/kv/kvtest"
)

var update = flag.Bool("update", false, "rewrite testdata/rule*.golden")

// ruleUnit are the rule inputs of the unit tests and of the policy
// probes, besides the fuzz seeds.
var ruleUnit = []string{
	"", "noname", "x:fast=1s", "x:budget=0", "x:budget=1",
	"x:budget=0.1,budget=0.2", "x:budget=0.1,fast=0s",
	"x:budget=0.1,fast=2s,slow=1s", "x:budget=0.1,burn=0",
	"x:budget=0.1,bogus=3", "x:budget=abc", "x:budget=0.1,fast=xyz",
	"x:budget=0.1,", "a b:budget=0.1",
	"t:budget=0.001,fast=1ms,slow=1ms,burn=0.5",
	"page:budget=0.05,fast=500ms,slow=2s,burn=2",
	// probes
	"x:budget=0.1,burn=+Inf",
	"x:budget=0.1,burn=NaN",
	"x:budget=0.1,burn=-Inf",
	"Page:BUDGET=0.1,Fast=1s",
	"x:budget=0.1,,burn=3",
	"x:budget=0.1,fast=",
	"x: budget = 0.1 , burn = 3 ",
}

// TestParseRuleGolden pins ParseRule's accept set and the canonical
// String of every accepted rule.
func TestParseRuleGolden(t *testing.T) {
	kvtest.Golden(t, "testdata/rule.golden", *update, func(s string) (string, error) {
		r, err := ParseRule(s)
		return r.String(), err
	}, ruleSeeds, kvtest.Corpus(t, "FuzzParseRule"), ruleUnit)
}

// TestParseRulesGolden pins ParseRules over the rule inputs and the
// list forms: separators, blank segments and duplicate names.
func TestParseRulesGolden(t *testing.T) {
	lists := []string{
		"a:budget=0.1; b:budget=0.2,burn=3;",
		"a:budget=0.1;a:budget=0.2",
		";;",
		"a:budget=0.1;;b:budget=0.2",
		"a:budget=0.1\nb:budget=0.2",
		"a:budget=0.1 # page\nb:budget=0.2",
		"a:budget=0.1;noname",
		"page:budget=0.02,fast=1s,slow=5s,burn=2;ticket:budget=0.02,fast=5s,slow=30s,burn=1",
	}
	kvtest.Golden(t, "testdata/rules.golden", *update, func(s string) (string, error) {
		rs, err := ParseRules(s)
		parts := make([]string, len(rs))
		for i, r := range rs {
			parts[i] = r.String()
		}
		return strings.Join(parts, "; "), err
	}, ruleSeeds, kvtest.Corpus(t, "FuzzParseRule"), ruleUnit, lists)
}
