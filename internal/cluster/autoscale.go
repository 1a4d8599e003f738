package cluster

import (
	"fmt"

	"repro/internal/decision"
	"repro/internal/sim"
)

// The replica autoscaler closes the loop between the SLO watchdog and
// the placement scheduler: while any burn-rate rule is firing it adds
// server replicas (placed through the normal two-level path, so they
// land in the least-interfering zone with headroom), and once the
// alert has stayed quiet for DownAfter it retires the most recently
// added replica again. Retirement is drain-then-retire, never kill:
// the router stops feeding the replica, its queue and in-flight work
// finish, in-transit requests land, and only then does the gate seal —
// so the request-conservation invariant holds through every scale
// event by construction.

// AutoscaleConfig parameterizes the replica autoscaler. It requires
// Config.Watch with at least one burn-rate rule — the alert level is
// the scale-up signal.
type AutoscaleConfig struct {
	// Template is the spec cloned for each added replica (must be a
	// KindServer spec; Name becomes the "name-asN" prefix).
	Template VMSpec
	// Min floors the live replica count for scale-down (0 = never
	// below 1); Max caps scale-up; Step is replicas added per trigger.
	Min, Max, Step int
	// Interval is the evaluation cadence; Cooldown the minimum gap
	// between scale-ups; DownAfter the quiet time required before a
	// scale-down.
	Interval, Cooldown, DownAfter sim.Time
}

// withDefaults fills unset autoscaler knobs.
func (a AutoscaleConfig) withDefaults() AutoscaleConfig {
	if a.Step <= 0 {
		a.Step = 1
	}
	if a.Interval <= 0 {
		a.Interval = 250 * sim.Millisecond
	}
	if a.Cooldown <= 0 {
		a.Cooldown = 2 * sim.Second
	}
	if a.DownAfter <= 0 {
		a.DownAfter = 3 * sim.Second
	}
	return a
}

// liveReplicas counts server replicas the router could feed or start
// feeding (admitted and not on their way out; a mid-migration replica
// still counts — it resumes after the switchover).
func (c *Cluster) liveReplicas() int {
	n := 0
	for _, hd := range c.servers {
		if hd.admitted && !hd.draining && !hd.retired {
			n++
		}
	}
	return n
}

// autoscaleTick is the autoscaler state machine, one step per
// Interval. Barrier task, registered after the watch epoch so a
// same-instant evaluation is already visible.
func (c *Cluster) autoscaleTick() {
	as := c.cfg.Autoscale
	now := c.sh.Now()
	if c.watcher.Monitor().AnyFiring() {
		c.asQuietSince = now
		live := c.liveReplicas()
		if live >= as.Max || now-c.asLastUp < as.Cooldown {
			return
		}
		n := as.Step
		if live+n > as.Max {
			n = as.Max - live
		}
		for i := 0; i < n; i++ {
			c.scaleUp()
		}
		c.asLastUp = now
		return
	}
	if now-c.asQuietSince < as.DownAfter {
		return
	}
	floor := as.Min
	if floor < 1 {
		floor = 1 // never drain the last replica, whatever Min says
	}
	if c.liveReplicas() <= floor {
		return
	}
	// LIFO: retire the newest autoscaler-added replica; VMs from the
	// configured arrival sequence are never scaled away.
	for i := len(c.asCreated) - 1; i >= 0; i-- {
		hd := c.asCreated[i]
		if hd.admitted && !hd.draining && !hd.retired && !hd.migrating {
			c.beginDrain(hd)
			c.asQuietSince = now // pace consecutive scale-downs
			return
		}
	}
}

// scaleUp admits one replica cloned from the template through the
// normal placement path. Barrier context.
func (c *Cluster) scaleUp() {
	as := c.cfg.Autoscale
	spec := as.Template
	c.asSeq++
	spec.Name = fmt.Sprintf("%s-as%d", as.Template.Name, c.asSeq)
	spec.ArriveAt = c.sh.Now()
	if spec.Weight <= 0 {
		spec.Weight = 256
	}
	if spec.Threads <= 0 {
		spec.Threads = spec.VCPUs
	}
	hd := &VMHandle{Spec: spec, idx: len(c.vms)}
	c.vms = append(c.vms, hd)
	c.servers = append(c.servers, hd)
	c.asCreated = append(c.asCreated, hd)
	c.scaleUps++
	if c.decCtl.Wants(decision.KindAutoscale) {
		c.recordScale("up", hd, c.liveReplicas())
	}
	c.admit(hd)
}

// beginDrain cordons hd (the router skips draining replicas) and arms
// the drain watch. Barrier context.
func (c *Cluster) beginDrain(hd *VMHandle) {
	if c.decCtl.Wants(decision.KindAutoscale) {
		c.recordScale("down", hd, c.liveReplicas())
	}
	hd.draining = true
	c.sh.AtBarrier(c.sh.Now()+c.lookahead, "drain", func() { c.drainCheck(hd) })
}

// drainCheck retires hd once every routed request has landed and
// finished: nothing in transit (routed == delivered), nothing queued
// or in flight at the gate, nothing carried by a migration. Until
// then it re-arms one lookahead out. Barrier task.
func (c *Cluster) drainCheck(hd *VMHandle) {
	if hd.retired {
		return
	}
	g := hd.gate
	if hd.routed == hd.delivered && len(hd.carried) == 0 && g.QueueLen() == 0 && g.InFlight() == 0 {
		c.retire(hd)
		return
	}
	c.sh.AtBarrier(c.sh.Now()+c.lookahead, "drain", func() { c.drainCheck(hd) })
}

// retire seals the drained replica's gate (empty by construction — the
// drain condition held at this same barrier) and releases its
// committed capacity. The instance's shell idles on its host for the
// rest of the run, as a deprovisioned-but-not-deallocated VM would.
func (c *Cluster) retire(hd *VMHandle) {
	if left := hd.gate.Close(); len(left) != 0 {
		// Cannot happen given the drain condition; carrying them keeps
		// the conservation ledger honest even if it does.
		hd.carried = append(hd.carried, left...)
	}
	hd.retired = true
	hd.draining = false
	hd.host.committed -= hd.Spec.VCPUs
	if hd.Spec.Sensitive {
		hd.host.sensitive--
	}
	c.scaleDowns++
}
