package hypervisor

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the hypercall surface exposed to guest kernels. All
// calls are synchronous: the guest invokes them from vCPU context while
// it is executing.

// SchedOpBlock is HYPERVISOR_sched_op(SCHEDOP_block): the guest has no
// runnable work and gives up the vCPU until an event arrives. When the
// call doubles as an SA acknowledgement the pending flag is cleared.
// It returns false (and does not block) if an interrupt is pending.
func (h *Hypervisor) SchedOpBlock(v *VCPU) bool {
	if v.state != StateRunning || v.pcpu == nil {
		return false
	}
	if len(v.pendingIRQ) > 0 {
		return false
	}
	if v.saPending {
		// The block doubles as the SA acknowledgement; under fault
		// injection the ack may be lost (the guest keeps the vCPU and
		// the hard limit fires) or arrive late.
		return h.ackSA(v, StateBlocked)
	}
	p := v.pcpu
	h.deschedule(p, StateBlocked, false)
	h.dispatch(p)
	return true
}

// SchedOpYield is HYPERVISOR_sched_op(SCHEDOP_yield): the vCPU remains
// runnable but yields the pCPU, queueing behind peers of its priority
// class. Doubles as an SA acknowledgement when one is pending.
func (h *Hypervisor) SchedOpYield(v *VCPU) {
	if v.state != StateRunning || v.pcpu == nil {
		return
	}
	if v.saPending {
		h.ackSA(v, StateRunnable)
		return
	}
	p := v.pcpu
	v.yieldHint = true
	h.deschedule(p, StateRunnable, false)
	h.dispatch(p)
}

// ackSA settles an SA acknowledgement subject to fault injection. It
// reports whether the guest's hypercall took effect: a lost ack leaves
// the handshake open (the hard limit will preempt), a delayed ack
// completes after the injected latency, and the fault-free path
// completes immediately.
func (h *Hypervisor) ackSA(v *VCPU, disposition RunState) bool {
	lost, delay := h.cfg.Faults.AckFault()
	if lost {
		if tl := h.cfg.Trace; tl != nil {
			tl.Record(h.eng.Now(), trace.KindSA, v.Name(), "ack lost (fault)")
		}
		return false
	}
	if delay > 0 {
		h.eng.After(delay, "fault-ack-delay", func() {
			// The hard limit may have fired meanwhile; a settled
			// handshake swallows the late ack.
			if v.saPending && v.pcpu != nil {
				h.completeSA(v, disposition)
			}
		})
		return true
	}
	h.completeSA(v, disposition)
	return true
}

// Runstate is what VCPUOP_get_runstate_info reports to the guest.
type Runstate struct {
	State RunState
	Steal sim.Time
}

// rsSnap is a cached runstate answer used to serve stale snapshots
// under fault injection.
type rsSnap struct {
	rs Runstate
	at sim.Time
}

// GetRunstate is HYPERVISOR_vcpu_op(VCPUOP_get_runstate_info): it lets
// the guest (the IRS migrator, steal-time accounting) observe the true
// hypervisor state of any sibling vCPU. With a StaleRunstate fault the
// answer comes from a per-vCPU snapshot refreshed only once it exceeds
// the staleness bound, so the guest can observe a sibling as running
// long after it was preempted.
func (h *Hypervisor) GetRunstate(v *VCPU) Runstate {
	maxAge := h.cfg.Faults.RunstateMaxAge()
	if maxAge <= 0 {
		return Runstate{State: v.state, Steal: v.StealTime()}
	}
	now := h.eng.Now()
	if s, ok := h.staleRS[v]; ok && now-s.at <= maxAge {
		if now > s.at {
			h.cfg.Faults.RecordStaleServe()
		}
		return s.rs
	}
	rs := Runstate{State: v.state, Steal: v.StealTime()}
	if h.staleRS == nil {
		h.staleRS = make(map[*VCPU]rsSnap)
	}
	h.staleRS[v] = rsSnap{rs: rs, at: now}
	return rs
}

// SetTimer arms the per-vCPU one-shot timer (VCPUOP_set_singleshot_timer).
// When it fires the vCPU receives IRQTimer; if it was blocked it wakes.
func (h *Hypervisor) SetTimer(v *VCPU, at sim.Time) {
	h.eng.Cancel(v.timer)
	now := h.eng.Now()
	if at < now {
		at = now
	}
	v.timerAt = at
	v.timer = h.eng.At(at, "xen-timer", v.timerCallback())
}

// StopTimer cancels the pending one-shot timer, if any.
func (h *Hypervisor) StopTimer(v *VCPU) {
	h.eng.Cancel(v.timer)
	v.timer = sim.EventRef{}
}

// Kick sends an event-channel notification to a sibling vCPU (the
// reschedule-IPI analogue). Blocked vCPUs wake with BOOST priority.
func (h *Hypervisor) Kick(v *VCPU) {
	h.SendIRQ(v, IRQKick)
}
