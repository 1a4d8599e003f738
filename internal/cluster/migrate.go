package cluster

import (
	"repro/internal/decision"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Live migration follows the classic pre-copy shape: while the VM keeps
// serving on the source (and the router cordons it so its queue
// drains), state is copied for CopyPerVCPU×vCPUs; then the VM pauses
// for MigrationPause (switchover), its scheduler state is snapshotted,
// its not-yet-started requests are carried over, and a successor
// instance boots on the destination seeded with the snapshot. Carried
// requests keep their original arrival stamps, so the downtime is paid
// in their measured latency — migrations are never free.
//
// Every step here reads or mutates more than one host (the signal
// sweep, the destination scorer, the cross-host reboot), so the whole
// state machine runs as coordinator barrier tasks with all shards
// parked.

// monitor refreshes the interference signal and, when enabled,
// considers one migration per tick. Barrier task.
func (c *Cluster) monitor() {
	c.refreshSignals()
	if c.cfg.Migration {
		c.maybeMigrate()
	}
}

// maybeMigrate moves the worst-suffering server VM — the one whose
// measured per-vCPU steal fraction over the last window exceeds
// StealTrigger — to the least-interfering host with capacity. One
// migration is in flight at a time, each VM has a cooldown, and
// HotThreshold hysteresis stops ping-ponging between near-equal hosts.
func (c *Cluster) maybeMigrate() {
	for _, hd := range c.servers {
		if hd.migrating {
			return
		}
	}
	now := c.sh.Now()

	open := 0
	for _, hd := range c.servers {
		if hd.admitted && hd.gate != nil && !hd.gate.Closed() {
			open++
		}
	}
	var victim *VMHandle
	for _, hd := range c.servers {
		if !hd.admitted || hd.gate == nil || hd.gate.Closed() {
			continue
		}
		// An autoscaler-draining replica is already on its way out, and
		// a replica in a cordoned (outaged) zone has nowhere to go —
		// migration is intra-zone.
		if hd.draining || (len(c.zones) > 1 && c.zoneOf(hd.host).cordoned) {
			continue
		}
		// Residency: a VM is not movable until MigrationCooldown after
		// its admission or last move, so transient balancer noise right
		// after placement cannot evict it.
		if now-hd.lastMove < c.cfg.MigrationCooldown {
			continue
		}
		// Never cordon the only live replica: with nowhere to route,
		// the whole stream would stall for the copy+pause window.
		if open <= 1 {
			continue
		}
		if hd.stealFrac < c.cfg.StealTrigger {
			continue
		}
		if victim == nil || hd.stealFrac > victim.stealFrac {
			victim = hd
		}
	}
	if victim == nil {
		return
	}
	hot := victim.host

	// Destination: re-run the interference-aware placement scorer for
	// the victim over the other hosts, so a host that is "cool" only
	// because its hogs steal from each other is not chosen for a
	// latency-sensitive VM. Candidates stay inside the victim's zone —
	// a zone is a failure/latency domain, and cross-zone capacity moves
	// are the autoscaler's job, not the hot-spot balancer's.
	candidates := c.hosts
	if len(c.zones) > 1 {
		candidates = c.zoneOf(hot).hosts
	}
	cap := c.capacity()
	rec := c.decCtl.Wants(decision.KindMigrate)
	var cands []decision.Candidate
	if rec {
		cands = c.decCtl.Candidates(len(candidates))
	}
	var cool *Host
	var coolScore float64
	for _, h := range candidates {
		if h == hot || h.committed+victim.Spec.VCPUs > cap {
			continue
		}
		s := c.placementScore(h, victim, cap)
		if rec {
			cands = append(cands, decision.Candidate{
				Name:  h.Name(),
				Score: s,
				Reason: c.decCtl.Text("busy=%.3f intf=%.3f committed=%d",
					trace.Float(h.busyFrac, 3), trace.Float(h.Interference(), 3), trace.Int(h.committed)),
			})
		}
		if cool == nil || s < coolScore {
			cool, coolScore = h, s
		}
	}
	if cool == nil {
		return
	}
	// Hysteresis: the move must be a clear win (the epsilon keeps a
	// cold rack from dividing near-zero scores).
	if hot.Score() <= c.cfg.HotThreshold*coolScore+0.02 {
		return
	}
	if rec {
		c.recordMigrate(victim, hot, cool, cands)
	}
	c.startMigration(victim, cool)
}

// startMigration runs the pre-copy phase, then the switchover. The copy
// runs for at least one transit latency so every request routed before
// the cordon has landed (or bounced) by the time the gate seals.
func (c *Cluster) startMigration(hd *VMHandle, dest *Host) {
	hd.migrating = true // cordons the VM: router stops feeding it
	now := c.sh.Now()
	hd.lastMove = now
	copyTime := c.cfg.CopyPerVCPU * sim.Time(hd.Spec.VCPUs)
	if copyTime < c.lookahead {
		copyTime = c.lookahead
	}
	c.sh.AtBarrier(now+copyTime, "migrate-copy", func() {
		// Switchover: freeze scheduler state, seal the gate, carry the
		// requests no worker has started.
		snap := hd.host.HV.SnapshotVM(hd.vm)
		hd.carried = append(hd.carried, hd.gate.Close()...)
		c.sh.AtBarrier(c.sh.Now()+c.cfg.MigrationPause, "migrate-switch", func() {
			c.completeMigration(hd, dest, snap)
		})
	})
}

// completeMigration boots the successor instance on dest, re-submits
// the carried requests with their original arrival stamps, and reopens
// the VM to the router. The retired instance idles on the source until
// the end of the run (shell teardown is not modeled); its drained
// workers have already exited.
func (c *Cluster) completeMigration(hd *VMHandle, dest *Host, snap hypervisor.VMSnapshot) {
	src := hd.host
	src.committed -= hd.Spec.VCPUs
	dest.committed += hd.Spec.VCPUs
	if hd.Spec.Sensitive {
		src.sensitive--
		dest.sensitive++
	}
	hd.gen++
	hd.host = dest
	hd.prevSteal = 0      // successor VM's steal clock restarts on dest
	c.registerWatchVM(hd) // attribution follows the VM to its new host
	c.boot(hd, dest, &snap)
	carried := hd.carried
	hd.carried = nil
	for _, req := range carried {
		// The span followed the request to the source host's collector;
		// its Finish will now happen on the destination shard.
		dest.spans.Adopt(req.Span)
		hd.gate.SubmitReq(req)
	}
	hd.migrating = false
	c.migrations++
	c.flushBuffered()
}

// hostBlackout pauses every vCPU of one randomly chosen host for
// HostBlackoutFor — the rack-level fault model. Migrations and the
// invariant audits must ride it out. Barrier task.
func (c *Cluster) hostBlackout() {
	h := c.hosts[c.blackoutRNG.Intn(len(c.hosts))]
	c.blackouts++
	for _, vm := range h.HV.VMs() {
		for _, v := range vm.VCPUs {
			h.HV.PauseVCPU(v, c.cfg.HostBlackoutFor)
		}
	}
}
