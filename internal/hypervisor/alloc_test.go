package hypervisor

import (
	"testing"

	"repro/internal/sim"
)

// The per-vCPU event callbacks are bound once, so re-arming the guest
// timer and the PLE window allocates nothing. These tests pin that.

// soloRig runs one stub-guest vCPU alone on one pCPU under strategy.
func soloRig(t *testing.T, strategy Strategy) (*sim.Engine, *Hypervisor, *VCPU) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = strategy
	h := New(eng, cfg)
	v := h.NewVM("solo", 1, 256, false).VCPUs[0]
	h.RegisterGuest(v, &stubGuest{v: v})
	v.Pin(h.PCPU(0))
	h.StartVCPU(v)
	if v.State() != StateRunning {
		t.Fatalf("solo vCPU is %v, want running", v.State())
	}
	return eng, h, v
}

func TestSetTimerRearmZeroAllocs(t *testing.T) {
	eng, h, v := soloRig(t, StrategyVanilla)
	h.SetTimer(v, eng.Now()+sim.Millisecond) // binds the callback
	allocs := testing.AllocsPerRun(100, func() {
		h.SetTimer(v, eng.Now()+sim.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("SetTimer re-arm allocates %v allocs/op, want 0", allocs)
	}
}

func TestSpinBeginZeroAllocs(t *testing.T) {
	_, h, v := soloRig(t, StrategyPLE)
	h.SpinBegin(v) // binds the callback
	h.SpinEnd(v)
	allocs := testing.AllocsPerRun(100, func() {
		h.SpinBegin(v)
		h.SpinEnd(v)
	})
	if allocs != 0 {
		t.Fatalf("SpinBegin/SpinEnd allocates %v allocs/op, want 0", allocs)
	}
}

// TestPLERearmZeroAllocs covers pleExit's keep-spinning path: with no
// other vCPU queued the window simply re-arms, every PLEWindow, for as
// long as the spin lasts.
func TestPLERearmZeroAllocs(t *testing.T) {
	eng, h, v := soloRig(t, StrategyPLE)
	// Start spinning after time zero: spinningSince 0 means "not
	// spinning".
	if err := eng.Run(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	h.SpinBegin(v)
	window := h.Config().PLEWindow
	if err := eng.Run(eng.Now() + 4*window); err != nil {
		t.Fatal(err)
	}
	fired := eng.Fired()
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.Run(eng.Now() + 10*window); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PLE re-arm allocates %v allocs/op, want 0", allocs)
	}
	if eng.Fired()-fired < 100*10 {
		t.Fatalf("%d events over %d windows: the PLE window did not keep re-arming", eng.Fired()-fired, 100*10)
	}
	if h.PLEYields() != 0 || v.State() != StateRunning {
		t.Fatalf("lone spinner yielded %d times (state %v), want 0 and running", h.PLEYields(), v.State())
	}
}

// TestPendingIRQBufferReused: interrupts pended while a vCPU is off-CPU
// and claimed on resume reuse the buffers the guest has drained, so a
// pend/claim cycle allocates nothing at steady state.
func TestPendingIRQBufferReused(t *testing.T) {
	_, h, v := soloRig(t, StrategyVanilla)
	for i := 0; i < 2; i++ { // one claim per buffer binds both
		h.pendIRQ(v, IRQKick)
		h.ClaimPendingIRQs(v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.pendIRQ(v, IRQTimer)
		h.pendIRQ(v, IRQKick)
		h.pendIRQ(v, IRQKick) // collapses
		if irqs := h.ClaimPendingIRQs(v); len(irqs) != 2 || irqs[0] != IRQTimer || irqs[1] != IRQKick {
			t.Fatalf("claimed %v, want [timer kick]", irqs)
		}
	})
	if allocs != 0 {
		t.Fatalf("pend/claim cycle allocates %v allocs/op, want 0", allocs)
	}
	if h.HasPendingIRQ(v) {
		t.Fatal("claim left interrupts pending")
	}
}

// TestRepickVCPUZeroAllocs: the periodic re-pick scans the other pCPUs
// into a per-hypervisor scratch list instead of a fresh slice per call.
func TestRepickVCPUZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(3)
	cfg.RepickEpsilon = 0 // equal-load candidates are listed, never taken
	h := New(eng, cfg)
	v := h.NewVM("solo", 1, 256, false).VCPUs[0]
	h.RegisterGuest(v, &stubGuest{v: v})
	h.StartVCPU(v)
	p := v.pcpu
	if p == nil || p.current != v {
		t.Fatalf("vCPU not running (state %v)", v.State())
	}
	h.repickVCPU(p, v)
	allocs := testing.AllocsPerRun(100, func() { h.repickVCPU(p, v) })
	if allocs != 0 {
		t.Fatalf("repickVCPU allocates %v allocs/op, want 0", allocs)
	}
	if v.pcpu != p {
		t.Fatal("repick moved the vCPU with RepickEpsilon 0")
	}
}
