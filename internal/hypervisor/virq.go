package hypervisor

import "fmt"

// IRQ identifies a virtual interrupt line delivered to a guest vCPU.
type IRQ int

const (
	// IRQTimer is the per-vCPU one-shot timer interrupt.
	IRQTimer IRQ = iota + 1
	// IRQSAUpcall is the scheduler-activation upcall added by IRS
	// (VIRQ_SA_UPCALL in the paper).
	IRQSAUpcall
	// IRQKick is an event-channel notification / reschedule IPI from a
	// sibling vCPU, used to wake an idle vCPU after task migration.
	IRQKick
)

func (i IRQ) String() string {
	switch i {
	case IRQTimer:
		return "timer"
	case IRQSAUpcall:
		return "sa-upcall"
	case IRQKick:
		return "kick"
	default:
		return fmt.Sprintf("IRQ(%d)", int(i))
	}
}

// SendIRQ delivers irq to v. A running vCPU takes it immediately; a
// descheduled vCPU accumulates it as pending (taken on resume); a
// blocked vCPU is woken first. Event-channel kicks (IRQKick) pass
// through the fault injector and may be dropped, delayed, or
// duplicated — the lost-wakeup pathology.
func (h *Hypervisor) SendIRQ(v *VCPU, irq IRQ) {
	if irq == IRQKick {
		dropped, delays := h.cfg.Faults.WakeDelivery()
		if dropped {
			return
		}
		if delays != nil {
			for _, d := range delays {
				if d == 0 {
					h.deliverIRQ(v, irq)
					continue
				}
				h.eng.After(d, "fault-wake-delay", func() {
					if v.state != StateOffline {
						h.deliverIRQ(v, irq)
					}
				})
			}
			return
		}
	}
	h.deliverIRQ(v, irq)
}

func (h *Hypervisor) deliverIRQ(v *VCPU, irq IRQ) {
	switch v.state {
	case StateRunning:
		v.ctx.TakeIRQ(irq)
	case StateBlocked:
		h.pendIRQ(v, irq)
		h.WakeVCPU(v)
	default:
		h.pendIRQ(v, irq)
	}
}

func (h *Hypervisor) pendIRQ(v *VCPU, irq IRQ) {
	for _, p := range v.pendingIRQ {
		if p == irq {
			return // level-triggered: collapse duplicates
		}
	}
	v.pendingIRQ = append(v.pendingIRQ, irq)
}

// ClaimPendingIRQs returns and clears the interrupts that arrived while
// the vCPU was descheduled. The guest calls this first thing on resume
// and handles the batch at once: the returned slice is valid until the
// next claim on v, whose storage the two batches then swap, so pending
// interrupts reuse the buffers the guest has drained.
func (h *Hypervisor) ClaimPendingIRQs(v *VCPU) []IRQ {
	irqs := v.pendingIRQ
	v.pendingIRQ = v.claimedIRQ[:0]
	v.claimedIRQ = irqs
	return irqs
}

// HasPendingIRQ reports whether any interrupt is pending on v.
func (h *Hypervisor) HasPendingIRQ(v *VCPU) bool { return len(v.pendingIRQ) > 0 }
