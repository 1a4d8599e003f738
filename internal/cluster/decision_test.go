package cluster

import (
	"testing"

	"repro/internal/decision"
	"repro/internal/sim"
)

// TestPlaceDecisionRecorded is the successor of the old debugPlace
// stderr dump: every interference-aware placement must leave a record
// carrying the full candidate set, and the recorded winner must be the
// minimum-score candidate — the policy's own invariant, now asserted
// instead of eyeballed.
func TestPlaceDecisionRecorded(t *testing.T) {
	cfg := shortConfig()
	cfg.Policy = InterferenceAware
	cfg.Decisions = &decision.Options{Kinds: []decision.Kind{decision.KindPlace}}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := c.Decisions().Records()
	if len(recs) != len(cfg.VMs) {
		t.Fatalf("%d place records for %d admissions", len(recs), len(cfg.VMs))
	}
	for i := range recs {
		r := &recs[i]
		if r.Kind != decision.KindPlace || r.Chooser != "ctl" {
			t.Fatalf("record %d: kind=%v chooser=%q", i, r.Kind, r.Chooser)
		}
		if len(r.Candidates) != cfg.Hosts {
			t.Fatalf("record %d for %s has %d candidates, want %d", i, r.Subject, len(r.Candidates), cfg.Hosts)
		}
		best := r.Candidates[0]
		for _, cand := range r.Candidates[1:] {
			if cand.Score < best.Score {
				best = cand
			}
		}
		if r.Winner != best.Name {
			t.Fatalf("record %d: winner %q but min-score candidate is %q (%.3f)", i, r.Winner, best.Name, best.Score)
		}
		if pol, _ := r.Input("policy"); pol != "interference-aware" {
			t.Fatalf("record %d: policy input %q", i, pol)
		}
	}
}

// TestClusterDecisionsDisabledStaysNil: runs without Config.Decisions
// expose a nil log and record nothing.
func TestClusterDecisionsDisabledStaysNil(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 2 * sim.Second
	cfg.Drain = sim.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.Decisions() != nil {
		t.Fatal("Decisions() non-nil without Config.Decisions")
	}
	if recs := c.Decisions().Records(); recs != nil {
		t.Fatalf("nil log returned %d records", len(recs))
	}
}

// Paired throughput benchmarks for the decision log's cluster cost:
// the same default rig with the audit off (hook sites pay one nil
// test) and on (every control-plane choice recorded with candidates).
func benchClusterDecisions(b *testing.B, opt *decision.Options) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Decisions = opt
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkClusterNoDecisions(b *testing.B) { benchClusterDecisions(b, nil) }
func BenchmarkClusterWithDecisions(b *testing.B) {
	benchClusterDecisions(b, &decision.Options{Kinds: decision.ControlKinds()})
}
