package invariant_test

import (
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/sim"
)

// fakeSource reports a fixed set of violations per audit.
type fakeSource struct {
	rules []string
}

func (f *fakeSource) AuditInvariants(report func(rule, detail string)) {
	for _, r := range f.rules {
		report(r, "detail for "+r)
	}
}

func TestCleanSourceStaysClean(t *testing.T) {
	eng := sim.NewEngine()
	chk := invariant.New(sim.Millisecond)
	chk.Observe(&fakeSource{})
	chk.Attach(eng)
	_ = eng.Run(10 * sim.Millisecond)
	if chk.Count() != 0 {
		t.Fatalf("count = %d, want 0", chk.Count())
	}
	if chk.Audits() == 0 {
		t.Fatal("no audits ran")
	}
	if got := chk.Summary(); !strings.HasPrefix(got, "clean") {
		t.Fatalf("summary = %q, want clean", got)
	}
}

func TestViolationsTimestampedAndCounted(t *testing.T) {
	eng := sim.NewEngine()
	chk := invariant.New(2 * sim.Millisecond)
	chk.Observe(&fakeSource{rules: []string{"rule-a", "rule-b"}})
	chk.Attach(eng)
	_ = eng.Run(5 * sim.Millisecond) // audits at 2ms and 4ms
	if chk.Count() != 4 {
		t.Fatalf("count = %d, want 4", chk.Count())
	}
	vs := chk.Violations()
	if len(vs) != 4 {
		t.Fatalf("recorded %d, want 4", len(vs))
	}
	if vs[0].At != 2*sim.Millisecond || vs[2].At != 4*sim.Millisecond {
		t.Fatalf("timestamps %v and %v, want 2ms and 4ms", vs[0].At, vs[2].At)
	}
	if vs[0].Rule != "rule-a" || vs[1].Rule != "rule-b" {
		t.Fatalf("rules %q %q", vs[0].Rule, vs[1].Rule)
	}
	if s := chk.Summary(); !strings.Contains(s, "rule-a×2") || !strings.Contains(s, "4 violations") {
		t.Fatalf("summary = %q", s)
	}
}

func TestEngineViolationsBridged(t *testing.T) {
	eng := sim.NewEngine()
	chk := invariant.New(sim.Second)
	chk.Attach(eng)
	// Schedule-in-past and non-positive period are reported, not panics.
	eng.At(5*sim.Millisecond, "later", func() {
		eng.At(sim.Millisecond, "past", func() {})
	})
	eng.Every(0, "bad", func() {})
	_ = eng.Run(10 * sim.Millisecond)
	var rules []string
	for _, v := range chk.Violations() {
		rules = append(rules, v.Rule)
	}
	if len(rules) != 2 || rules[0] != "non-positive-period" || rules[1] != "schedule-in-past" {
		t.Fatalf("bridged rules = %v", rules)
	}
	if chk.Violations()[1].At != 5*sim.Millisecond {
		t.Fatalf("schedule-in-past stamped at %v, want 5ms", chk.Violations()[1].At)
	}
}

func TestRecordingCapHolds(t *testing.T) {
	eng := sim.NewEngine()
	chk := invariant.New(sim.Millisecond)
	src := &fakeSource{}
	for i := 0; i < 10; i++ {
		src.rules = append(src.rules, "noisy")
	}
	chk.Observe(src)
	chk.Attach(eng)
	_ = eng.Run(100 * sim.Millisecond) // 100 audits x 10 = 1000 violations
	if chk.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", chk.Count())
	}
	if len(chk.Violations()) != 256 {
		t.Fatalf("recorded %d, want capped at 256", len(chk.Violations()))
	}
}

// TestAuditAtZeroAllocs: the report callback sources receive is bound
// once, so a clean audit pass allocates nothing.
func TestAuditAtZeroAllocs(t *testing.T) {
	chk := invariant.New(sim.Millisecond)
	chk.Observe(&fakeSource{}, &fakeSource{})
	chk.AuditAt(0)
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(100, func() {
		now += sim.Millisecond
		chk.AuditAt(now)
	})
	if allocs != 0 {
		t.Fatalf("AuditAt allocates %v allocs/op, want 0", allocs)
	}
	// Violations still carry the time of the audit that found them.
	chk.Observe(&fakeSource{rules: []string{"r"}})
	chk.AuditAt(7 * sim.Millisecond)
	if vs := chk.Violations(); len(vs) != 1 || vs[0].At != 7*sim.Millisecond {
		t.Fatalf("violations = %+v", vs)
	}
}
