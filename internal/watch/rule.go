package watch

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/kv"
	"repro/internal/sim"
)

// Rule is one multi-window burn-rate SLO alert rule in the Google SRE
// style: the alert fires when the error-budget burn rate exceeds Burn
// over BOTH the fast window (responsiveness) and the slow window
// (sustained impact), which keeps detection quick without paging on
// one-interval blips.
//
// The signal is the router's per-request violation stream: each served
// request contributes a 0 (met SLO) or 1 (violated). Budget is the
// violation fraction the SLO tolerates; burn rate is the observed
// fraction divided by the budget, so burn 1.0 consumes the budget
// exactly as provisioned and burn 4.0 exhausts it four times too fast.
type Rule struct {
	// Name identifies the rule in alerts and incident bundles.
	Name string
	// Budget is the tolerated violation fraction, in (0, 1).
	Budget float64
	// Fast and Slow are the two evaluation windows, Fast <= Slow.
	Fast, Slow sim.Time
	// Burn is the burn-rate threshold both windows must exceed.
	Burn float64
}

// Defaults applied by ParseRule when a field is omitted.
const (
	DefaultFastWindow = sim.Time(time.Second)
	DefaultSlowWindow = sim.Time(5 * time.Second)
	DefaultBurn       = 2.0
)

// RuleFields is the rule grammar after the "name:" head: budget and
// burn as floats, fast and slow as Go durations ("500ms", "2s"). The
// render lists every field. Load specs reuse it for their alert
// section.
var RuleFields = kv.Full(
	kv.Float("budget", func(r *Rule) *float64 { return &r.Budget }),
	kv.Dur("fast", func(r *Rule) *sim.Time { return &r.Fast }),
	kv.Dur("slow", func(r *Rule) *sim.Time { return &r.Slow }),
	kv.Float("burn", func(r *Rule) *float64 { return &r.Burn }),
)

// String renders the rule in the exact syntax ParseRule accepts, with
// every field explicit: "name:budget=0.02,fast=500ms,slow=2s,burn=4".
// ParseRule(r.String()) round-trips to an equal rule.
func (r Rule) String() string { return r.Name + ":" + RuleFields.Format(&r) }

// Validate reports whether the rule's fields are coherent.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("watch: rule needs a name")
	}
	if strings.ContainsAny(r.Name, ":,;= \t\n") {
		return fmt.Errorf("watch: rule name %q contains reserved characters", r.Name)
	}
	if !(r.Budget > 0 && r.Budget < 1) {
		return fmt.Errorf("watch: rule %s: budget %v outside (0, 1)", r.Name, r.Budget)
	}
	if r.Fast <= 0 {
		return fmt.Errorf("watch: rule %s: fast window %v not positive", r.Name, r.Fast)
	}
	if r.Slow < r.Fast {
		return fmt.Errorf("watch: rule %s: slow window %v shorter than fast %v", r.Name, r.Slow, r.Fast)
	}
	if !(r.Burn > 0) || math.IsInf(r.Burn, 0) {
		return fmt.Errorf("watch: rule %s: burn threshold %v not a positive finite number", r.Name, r.Burn)
	}
	return nil
}

// ParseRule parses one rule of the form
//
//	name:budget=0.02[,fast=500ms][,slow=2s][,burn=4]
//
// (see RuleFields). budget is required (Validate rejects the unset 0);
// fast, slow and burn fall back
// to DefaultFastWindow/DefaultSlowWindow/DefaultBurn. Whitespace
// around the rule is ignored.
func ParseRule(s string) (Rule, error) {
	sec, err := kv.Head(s)
	if err != nil {
		return Rule{}, fmt.Errorf("watch: rule: %v", err)
	}
	return parseRule(sec)
}

func parseRule(sec kv.Section) (Rule, error) {
	r := Rule{Name: sec.Name, Fast: DefaultFastWindow, Slow: DefaultSlowWindow, Burn: DefaultBurn}
	if err := RuleFields.Parse(&r, sec.Body); err != nil {
		return Rule{}, fmt.Errorf("watch: rule %q: %v", r.Name, err)
	}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// ParseRules parses a rule list, one rule per section: ';' or newlines
// separate rules, '#' starts a comment, and blank sections (a trailing
// ";") are skipped. Rule names must be unique.
func ParseRules(s string) ([]Rule, error) {
	secs, err := kv.Sections(s)
	if err != nil {
		return nil, fmt.Errorf("watch: rule: %v", err)
	}
	out := make([]Rule, 0, len(secs))
	for _, sec := range secs {
		r, err := parseRule(sec)
		if err != nil {
			return nil, err
		}
		for _, prev := range out {
			if prev.Name == r.Name {
				return nil, fmt.Errorf("watch: duplicate rule name %q", r.Name)
			}
		}
		out = append(out, r)
	}
	return out, nil
}
