package hypervisor

import (
	"strconv"
	"testing"

	"repro/internal/decision"
	"repro/internal/sim"
)

// decRig is occRig with a decision ring threaded through Config: nVMs
// single-vCPU VMs with stub guests pinned to pCPU 0, so the timeslice
// round-robin generates a steady stream of involuntary preemptions.
func decRig(nVMs int, d *decision.Ring) (*sim.Engine, *Hypervisor) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Decisions = d
	h := New(eng, cfg)
	for vi := 0; vi < nVMs; vi++ {
		vm := h.NewVM("vm"+string(rune('a'+vi)), 1, 256, false)
		v := vm.VCPUs[0]
		h.RegisterGuest(v, &stubGuest{v: v})
		v.Pin(h.PCPU(0))
		h.StartVCPU(v)
	}
	return eng, h
}

func TestPreemptDecisionsRecorded(t *testing.T) {
	log := decision.NewLog(1, decision.Options{Kinds: decision.AllKinds()})
	eng, _ := decRig(2, log.Ring(0))
	if err := eng.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	log.Merge()
	recs := log.Records()
	var preempts int
	for i := range recs {
		r := &recs[i]
		if r.Kind != decision.KindPreempt {
			continue
		}
		preempts++
		if r.Subject != "vma" && r.Subject != "vmb" {
			t.Fatalf("preempt subject %q", r.Subject)
		}
		if got, ok := r.Input("pcpu"); !ok || got != "p0" {
			t.Fatalf("preempt pcpu input %q (ok=%v)", got, ok)
		}
		if _, ok := r.Input("class"); !ok {
			t.Fatalf("preempt record lacks class input: %+v", r)
		}
	}
	// 30ms timeslice, two runnable vCPUs, 1s horizon: dozens of
	// involuntary preemptions; the exact count is the scheduler's
	// business, presence and shape are ours.
	if preempts < 10 {
		t.Fatalf("%d preempt decisions over 1s, want >= 10 (records: %d)", preempts, len(recs))
	}
}

func TestBoostDecisionRecorded(t *testing.T) {
	log := decision.NewLog(1, decision.Options{Kinds: decision.AllKinds()})
	eng, h := decRig(2, log.Ring(0))
	if err := eng.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Block vma's vCPU via hypercall, then wake it: the wake grants
	// BOOST and must leave a decision record.
	v := h.VMs()[0].VCPUs[0]
	if v.State() == StateRunning {
		h.deschedule(v.pcpu, StateRunnable, false)
	}
	v.setState(StateBlocked)
	v.prio = PrioUnder // the grant predicate: only UNDER vCPUs boost
	h.WakeVCPU(v)
	log.Merge()
	var boosts int
	for _, r := range log.Records() {
		if r.Kind == decision.KindBoost && r.Subject == "vma" {
			boosts++
			if r.Winner != "vma/v0" {
				t.Fatalf("boost winner %q, want vma/v0", r.Winner)
			}
			if _, ok := r.Input("credits"); !ok {
				t.Fatalf("boost record lacks credits input: %+v", r)
			}
		}
	}
	if boosts != 1 {
		t.Fatalf("%d boost decisions for vma, want 1", boosts)
	}
}

// TestDisabledDecisionLogZeroAllocs pins the acceptance criterion: with
// no decision ring installed (the default), the scheduling hot path —
// timeslice preemptions, deschedule/dispatch cycles, wakes — allocates
// nothing per op. The nil-ring Wants test is all a hook site pays.
func TestDisabledDecisionLogZeroAllocs(t *testing.T) {
	eng, _ := decRig(2, nil)
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	step := 90 * sim.Millisecond // three timeslices per op
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.Run(eng.Now() + step); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled decision log hot path allocates %v allocs/op, want 0", allocs)
	}
}

// TestMaskedOutDecisionLogZeroAllocs covers the other off state: a ring
// is installed but its kind mask excludes the hypervisor kinds (the
// default for cluster runs, which record control-plane kinds only).
func TestMaskedOutDecisionLogZeroAllocs(t *testing.T) {
	log := decision.NewLog(1, decision.Options{Kinds: decision.ControlKinds()})
	eng, _ := decRig(2, log.Ring(0))
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	step := 90 * sim.Millisecond
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.Run(eng.Now() + step); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("masked-out decision log hot path allocates %v allocs/op, want 0", allocs)
	}
}

func benchDecisionHotPath(b *testing.B, d *decision.Ring) {
	eng, _ := decRig(2, d)
	if err := eng.Run(2 * sim.Second); err != nil {
		b.Fatal(err)
	}
	step := 90 * sim.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Run(eng.Now() + step); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathNoDecisions(b *testing.B) { benchDecisionHotPath(b, nil) }

func BenchmarkHotPathWithDecisions(b *testing.B) {
	log := decision.NewLog(1, decision.Options{Kinds: decision.AllKinds()})
	benchDecisionHotPath(b, log.Ring(0))
}

// TestRecordBoostZeroAllocs: a BOOST record is typed — cached names and
// raw numbers carved from the ring's slabs — so recording one allocates
// nothing beyond the slab chunks and the ring's own growth, amortized
// to zero per record.
func TestRecordBoostZeroAllocs(t *testing.T) {
	log := decision.NewLog(1, decision.Options{Kinds: decision.AllKinds()})
	d := log.Ring(0)
	_, h := decRig(1, d)
	v := h.VMs()[0].VCPUs[0]
	allocs := testing.AllocsPerRun(1000, func() { h.recordBoost(d, v) })
	if allocs != 0 {
		t.Fatalf("recordBoost allocates %v allocs/op, want 0", allocs)
	}
	log.Merge()
	recs := log.Records()
	last := recs[len(recs)-1]
	if got := last.Detail.String(); got != "wake boost for vma/v0" {
		t.Fatalf("boost detail %q", got)
	}
	if c, _ := last.Input("credits"); c != strconv.Itoa(v.credits) {
		t.Fatalf("credits input %q, want %d", c, v.credits)
	}
}
