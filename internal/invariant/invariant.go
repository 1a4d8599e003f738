// Package invariant is a runtime consistency checker for simulation
// runs. It periodically audits every attached source (the hypervisor's
// scheduling state, each guest kernel's task accounting) and collects
// structured violations instead of panicking, so chaos experiments can
// assert "faults degrade performance, never consistency" and report
// exactly what broke, where, and at which virtual time when something
// does.
package invariant

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Violation is one broken invariant, stamped with virtual time.
type Violation struct {
	At     sim.Time
	Rule   string // e.g. "sa-accounting", "no-lost-tasks"
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.At, v.Rule, v.Detail)
}

// Source is anything that can audit its own invariants. The hypervisor
// and each guest kernel implement it.
type Source interface {
	AuditInvariants(report func(rule, detail string))
}

// maxRecorded caps stored violations; past it only the count grows
// (a broken invariant usually re-fires on every audit pass).
const maxRecorded = 256

// Checker audits a set of sources on a fixed virtual-time cadence and
// records violations. The zero Checker is unusable; use New.
type Checker struct {
	eng     *sim.Engine
	every   sim.Time
	sources []Source

	violations []Violation
	total      int64
	audits     int64

	// report is the callback every audit hands its sources, bound once;
	// it stamps violations with auditNow, the running audit's time.
	report   func(rule, detail string)
	auditNow sim.Time

	// OnViolation, when non-nil, observes every violation as it is
	// recorded (including ones past the storage cap). The watch flight
	// recorder subscribes here so an invariant trip dumps an incident
	// bundle with the scheduling context still in its rings.
	OnViolation func(Violation)
}

// New creates a checker auditing at the given cadence once attached.
// A non-positive cadence defaults to 1 ms of virtual time.
func New(every sim.Time) *Checker {
	if every <= 0 {
		every = sim.Millisecond
	}
	return &Checker{every: every}
}

// Observe registers sources to audit. Call before Attach.
func (c *Checker) Observe(srcs ...Source) {
	for _, s := range srcs {
		if s != nil {
			c.sources = append(c.sources, s)
		}
	}
}

// Attach hooks the checker to the engine: a periodic audit event plus
// the engine's own OnViolation reporting (schedule-in-past and
// non-positive-period become recorded violations instead of panics).
func (c *Checker) Attach(eng *sim.Engine) {
	c.eng = eng
	eng.OnViolation = func(name, detail string) {
		c.record(eng.Now(), name, detail)
	}
	eng.Every(c.every, "invariant-audit", func() { c.Audit() })
}

// Audit runs one audit pass over every source immediately.
func (c *Checker) Audit() {
	now := sim.Time(0)
	if c.eng != nil {
		now = c.eng.Now()
	}
	c.AuditAt(now)
}

// AuditAt runs one audit pass stamped with the given virtual time. An
// unattached checker driven by an external clock (the sharded cluster
// audits at coordinator barriers, where no single engine is "the"
// clock) uses this instead of Attach.
func (c *Checker) AuditAt(now sim.Time) {
	c.audits++
	if c.report == nil {
		c.report = func(rule, detail string) { c.record(c.auditNow, rule, detail) }
	}
	c.auditNow = now
	for _, s := range c.sources {
		s.AuditInvariants(c.report)
	}
}

// Record reports one externally detected violation, e.g. a sharded
// coordinator's lookahead violation or an engine contract trip bridged
// from a shard without its own checker.
func (c *Checker) Record(at sim.Time, rule, detail string) {
	c.record(at, rule, detail)
}

func (c *Checker) record(at sim.Time, rule, detail string) {
	c.total++
	if len(c.violations) < maxRecorded {
		c.violations = append(c.violations, Violation{At: at, Rule: rule, Detail: detail})
	}
	if c.OnViolation != nil {
		c.OnViolation(Violation{At: at, Rule: rule, Detail: detail})
	}
}

// Violations returns the recorded violations (capped at maxRecorded;
// Count gives the true total).
func (c *Checker) Violations() []Violation { return c.violations }

// Count returns the total number of violations observed.
func (c *Checker) Count() int64 { return c.total }

// Audits returns how many audit passes have run.
func (c *Checker) Audits() int64 { return c.audits }

// Summary renders a one-line result: "clean (N audits)" or the
// violation count with the first few rules.
func (c *Checker) Summary() string {
	if c.total == 0 {
		return fmt.Sprintf("clean (%d audits)", c.audits)
	}
	rules := make(map[string]int)
	var order []string
	for _, v := range c.violations {
		if rules[v.Rule] == 0 {
			order = append(order, v.Rule)
		}
		rules[v.Rule]++
	}
	parts := make([]string, 0, len(order))
	for _, r := range order {
		parts = append(parts, fmt.Sprintf("%s×%d", r, rules[r]))
	}
	return fmt.Sprintf("%d violations (%s)", c.total, strings.Join(parts, " "))
}
