package hypervisor

import (
	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Decision-log producers for the two per-vCPU scheduler choices worth
// auditing: BOOST grants on wake and involuntary preemptions. Both are
// hot-path sites (WakeVCPU, deschedule), so the callers gate on
// Ring.Wants before calling in here; these helpers are the cold path
// and are marked noinline so their record construction never bloats the
// scheduler fast path or defeats the zero-alloc-when-off guarantee
// (pinned by TestDisabledDecisionLogZeroAllocs). The records are typed:
// cached names, constant state strings and raw numbers, carved from
// the ring's slabs, so recording allocates nothing either.

//go:noinline
func (h *Hypervisor) recordBoost(d *decision.Ring, v *VCPU) {
	d.Add(decision.Record{
		At:      h.eng.Now(),
		Kind:    decision.KindBoost,
		Subject: v.VM.Name,
		Winner:  v.Name(),
		Detail:  d.Text("wake boost for %s", trace.Str(v.Name())),
		Inputs: d.Inputs(
			decision.KV{Key: "credits", Val: trace.Int(v.credits)},
			decision.KV{Key: "grants", Val: trace.Int(int(v.VM.BoostGrants))},
		),
	})
}

//go:noinline
func (h *Hypervisor) recordPreempt(d *decision.Ring, now sim.Time, p *PCPU, v *VCPU, pc PreemptClass, disposition RunState) {
	d.Add(decision.Record{
		At:      now,
		Kind:    decision.KindPreempt,
		Subject: v.VM.Name,
		Winner:  v.Name(),
		Detail:  d.Text("involuntary deschedule of %s on %s (%s)", trace.Str(v.Name()), trace.Str(p.Name()), trace.Str(pc.String())),
		Inputs: d.Inputs(
			decision.KV{Key: "pcpu", Val: trace.Str(p.Name())},
			decision.KV{Key: "class", Val: trace.Str(pc.String())},
			decision.KV{Key: "prio", Val: trace.Str(v.prio.String())},
			decision.KV{Key: "credits", Val: trace.Int(v.credits)},
			decision.KV{Key: "to", Val: trace.Str(disposition.String())},
		),
	})
}
