package hypervisor

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the fault-facing hypervisor surface: vCPU blackouts
// (control-plane pause/resume) and the invariant audit hook consumed by
// internal/invariant.

// blackout pauses one started vCPU for dur, chosen by the injector's
// blackout stream. Driven by a periodic event armed in New.
func (h *Hypervisor) blackout(dur sim.Time) {
	var cands []*VCPU
	for _, vm := range h.vms {
		for _, v := range vm.VCPUs {
			if v.started && v.state != StateOffline {
				cands = append(cands, v)
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	h.PauseVCPU(cands[h.cfg.Faults.BlackoutPick(len(cands))], dur)
}

// PauseVCPU takes v off the CPU for dur, as a management-plane
// pause/resume would: a running vCPU is descheduled, a queued one is
// skipped by dispatch until the park expires, and any open SA handshake
// is torn down as expired so SA accounting stays closed. After dur the
// vCPU competes for its home pCPU again.
func (h *Hypervisor) PauseVCPU(v *VCPU, dur sim.Time) {
	if dur <= 0 || v.state == StateOffline {
		return
	}
	now := h.eng.Now()
	if until := now + dur; until > v.parkedUntil {
		v.parkedUntil = until
	}
	if tl := h.cfg.Trace; tl != nil {
		tl.Recordf(now, trace.KindVCPUState, v.Name(), "blackout for %s", dur)
	}
	if v.saPending {
		h.saFail(v)
		if v.pcpu != nil {
			v.pcpu.saWait = false
		}
	}
	if p := v.pcpu; p != nil && p.current == v {
		h.deschedule(p, StateRunnable, true)
		h.dispatch(p)
	}
	h.eng.After(dur, "fault-unpause", func() {
		if v.assigned != nil {
			h.checkPreempt(v.assigned)
		}
	})
}

// AuditInvariants walks the hypervisor's scheduling state and reports
// every broken invariant through report (rule, detail). It is called
// periodically by the invariant checker; a fault-free and a faulty run
// alike must report nothing — faults may degrade performance, never
// consistency.
func (h *Hypervisor) AuditInvariants(report func(rule, detail string)) {
	now := h.eng.Now()

	// One vCPU per pCPU, with coherent cross-links and runstates.
	running := make(map[*VCPU]*PCPU, len(h.pcpus))
	for _, p := range h.pcpus {
		if v := p.current; v != nil {
			if prev, dup := running[v]; dup {
				report("one-vcpu-per-pcpu", fmt.Sprintf("%s current on %s and %s", v.Name(), prev.Name(), p.Name()))
			}
			running[v] = p
			if v.pcpu != p {
				report("vcpu-pcpu-link", fmt.Sprintf("%s runs on %s but links %v", v.Name(), p.Name(), v.pcpu))
			}
			if v.state != StateRunning {
				report("runstate-coherence", fmt.Sprintf("%s current on %s in state %s", v.Name(), p.Name(), v.state))
			}
		}
	}
	queued := make(map[*VCPU]*PCPU)
	for _, p := range h.pcpus {
		for _, v := range p.runq {
			if _, isRunning := running[v]; isRunning {
				report("runq-coherence", fmt.Sprintf("%s queued on %s while running", v.Name(), p.Name()))
			}
			if prev, dup := queued[v]; dup {
				report("runq-coherence", fmt.Sprintf("%s queued on %s and %s", v.Name(), prev.Name(), p.Name()))
			}
			queued[v] = p
			if v.state != StateRunnable {
				report("runstate-coherence", fmt.Sprintf("%s queued on %s in state %s", v.Name(), p.Name(), v.state))
			}
		}
	}

	// SA ledger: every sent activation is acked, expired, or in flight.
	if h.saSent != h.saAcked+h.saExpired+h.saPendingN || h.saPendingN < 0 {
		report("sa-accounting", fmt.Sprintf("sent %d != acked %d + expired %d + pending %d",
			h.saSent, h.saAcked, h.saExpired, h.saPendingN))
	}

	for _, vm := range h.vms {
		for _, v := range vm.VCPUs {
			if !v.started {
				continue
			}
			// Runstate accounting must sum to the vCPU's wall time.
			var total sim.Time
			for s := StateRunning; s <= StateOffline; s++ {
				total += v.StateTime(s)
			}
			if total != now-v.startedAt {
				report("runstate-walltime", fmt.Sprintf("%s runstates sum to %s over %s of wall time",
					v.Name(), total, now-v.startedAt))
			}
			// Credit conservation: balances never escape the scheduler's
			// clamp bounds, so no vCPU mints or leaks credits.
			if v.credits < creditFloor || v.credits > creditCap {
				report("credit-bounds", fmt.Sprintf("%s credits %d outside [%d, %d]",
					v.Name(), v.credits, creditFloor, creditCap))
			}
			if v.saPending && v.saDeadline.Cancelled() {
				report("sa-accounting", fmt.Sprintf("%s has an open SA with no deadline", v.Name()))
			}
		}
	}
}
