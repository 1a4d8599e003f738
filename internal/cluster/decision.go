package cluster

import (
	"strconv"

	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Decision-log producers for the control plane's five choice sites:
// zone pick, host placement, request routing, autoscaling, and
// migration — plus the cordon/uncordon pair a zone outage emits. Every
// caller gates on decCtl.Wants first, so runs without Config.Decisions
// pay one nil test per site and build none of the candidate sets
// below. All sites run on the control shard (mid-window for routing,
// barrier context for the rest), so they share decCtl. Records stay
// typed: names the cluster already holds, numbers as they are, and
// constant formats, carved from the ring's slabs — nothing is
// formatted until the log is read.

// recordZonePick audits the outer level of two-level placement: every
// zone scored with the shared zone scorer, cordoned zones marked.
func (c *Cluster) recordZonePick(hd *VMHandle, st []topology.ZoneStats, zi int) {
	d := c.decCtl
	cands := d.Candidates(len(st))
	for i, zs := range st {
		format := "committed=%d/%d intf=%.3f"
		if zs.Cordoned {
			format = "cordoned committed=%d/%d intf=%.3f"
		}
		cands = append(cands, decision.Candidate{
			Name:   c.zones[i].name,
			Score:  topology.ZoneScore(zs, hd.Spec.VCPUs, hd.Spec.Pressure, hd.Spec.Sensitive),
			Reason: d.Text(format, trace.Int(zs.Committed), trace.Int(zs.Capacity), trace.Float(zs.Interference, 3)),
		})
	}
	d.Add(decision.Record{
		At:         c.sh.Now(),
		Kind:       decision.KindZonePick,
		Subject:    hd.instName(),
		Winner:     c.zones[zi].name,
		Detail:     d.Text("zone for %s (%d vCPUs)", trace.Str(hd.instName()), trace.Int(hd.Spec.VCPUs)),
		Candidates: cands,
		Inputs: d.Inputs(
			decision.KV{Key: "vcpus", Val: trace.Int(hd.Spec.VCPUs)},
			decision.KV{Key: "pressure", Val: trace.Float(hd.Spec.Pressure, 2)},
			decision.KV{Key: "sensitive", Val: trace.Str(strconv.FormatBool(hd.Spec.Sensitive))},
		),
	})
}

// recordPlace audits the inner level: every candidate host with the
// score the policy ranked it by — the interference-aware placement
// score, or the committed-vCPU count for the load-based policies.
func (c *Cluster) recordPlace(hd *VMHandle, hosts []*Host, best *Host, cap int) {
	d := c.decCtl
	cands := d.Candidates(len(hosts))
	for _, h := range hosts {
		over := h.committed+hd.Spec.VCPUs > cap
		cand := decision.Candidate{Name: h.Name()}
		if c.cfg.Policy == InterferenceAware {
			format := "busy=%.3f intf=%.3f sens=%d committed=%d"
			if over {
				format = "over-cap busy=%.3f intf=%.3f sens=%d committed=%d"
			}
			cand.Score = c.placementScore(h, hd, cap)
			cand.Reason = d.Text(format, trace.Float(h.busyFrac, 3), trace.Float(h.Interference(), 3),
				trace.Int(h.sensitive), trace.Int(h.committed))
		} else {
			format := "committed=%d"
			if over {
				format = "over-cap committed=%d"
			}
			cand.Score = float64(h.committed)
			cand.Reason = d.Text(format, trace.Int(h.committed))
		}
		cands = append(cands, cand)
	}
	d.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindPlace,
		Subject: hd.instName(),
		Winner:  best.Name(),
		Detail: d.Text("%s placed %s (%d vCPUs) on %s", trace.Str(c.cfg.Policy.String()),
			trace.Str(hd.instName()), trace.Int(hd.Spec.VCPUs), trace.Str(best.Name())),
		Candidates: cands,
		Inputs: d.Inputs(
			decision.KV{Key: "policy", Val: trace.Str(c.cfg.Policy.String())},
			decision.KV{Key: "cap", Val: trace.Int(cap)},
			decision.KV{Key: "pressure", Val: trace.Float(hd.Spec.Pressure, 2)},
			decision.KV{Key: "sensitive", Val: trace.Str(strconv.FormatBool(hd.Spec.Sensitive))},
		),
	})
}

// recordRoute audits one dispatched request: the chosen zone's
// routable replicas with their outstanding estimates (the JSQ
// ranking). The zone-level comparison is an input, not a candidate —
// zone scores and replica loads are different units.
func (c *Cluster) recordRoute(req workload.Request, z *zoneState, best *VMHandle, failover bool) {
	d := c.decCtl
	n := 0
	for _, hd := range z.servers {
		if routable(hd) {
			n++
		}
	}
	cands := d.Candidates(n)
	for _, hd := range z.servers {
		if !routable(hd) {
			continue
		}
		out := hd.routed - hd.servedSeen
		cands = append(cands, decision.Candidate{
			Name:   hd.instName(),
			Score:  float64(out),
			Reason: d.Text("out=%d", trace.Int(int(out))),
		})
	}
	zone := decision.KV{Key: "zone", Val: trace.Str(z.name)}
	var inputs []decision.KV
	if failover {
		inputs = d.Inputs(zone, decision.KV{Key: "failover", Val: trace.Str("1")})
	} else {
		inputs = d.Inputs(zone)
	}
	d.Add(decision.Record{
		At:         c.ctl.Now(),
		Kind:       decision.KindRoute,
		Subject:    best.instName(),
		Winner:     best.instName(),
		Detail:     d.Text("req@%v to %s in %s", trace.Dur(req.Arrival), trace.Str(best.instName()), trace.Str(z.name)),
		Candidates: cands,
		Inputs:     inputs,
	})
}

// recordRouteBuffered audits a request the router had to hold back:
// no routable zone (zone == "") or no live replica in zone. Winner "-"
// marks the non-choice.
func (c *Cluster) recordRouteBuffered(req workload.Request, zone string) {
	d := c.decCtl
	detail := d.Text("req@%v held back: no routable zone", trace.Dur(req.Arrival))
	if zone != "" {
		detail = d.Text("req@%v held back: no live replica in %s", trace.Dur(req.Arrival), trace.Str(zone))
	}
	d.Add(decision.Record{
		At:      c.ctl.Now(),
		Kind:    decision.KindRoute,
		Subject: "-",
		Winner:  "-",
		Detail:  detail,
		Inputs:  d.Inputs(decision.KV{Key: "buffered", Val: trace.Str("1")}),
	})
}

// recordScale audits one autoscaler action (act "up" or "down"), with
// the state machine's inputs: live replica count before the action and
// the burn-rate alert state that drove it.
func (c *Cluster) recordScale(act string, hd *VMHandle, live int) {
	d := c.decCtl
	firing := "0"
	if c.watcher.Monitor().AnyFiring() {
		firing = "1"
	}
	d.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindAutoscale,
		Subject: hd.Spec.Name,
		Winner:  hd.Spec.Name,
		Detail: d.Text("scale %s: %s (live %d, max %d)", trace.Str(act), trace.Str(hd.Spec.Name),
			trace.Int(live), trace.Int(c.cfg.Autoscale.Max)),
		Inputs: d.Inputs(
			decision.KV{Key: "act", Val: trace.Str(act)},
			decision.KV{Key: "live", Val: trace.Int(live)},
			decision.KV{Key: "max", Val: trace.Int(c.cfg.Autoscale.Max)},
			decision.KV{Key: "firing", Val: trace.Str(firing)},
		),
	})
}

// recordMigrate audits a triggered migration: the victim, its measured
// steal fraction against the trigger, and every in-zone destination
// candidate with the placement score the balancer ranked it by.
func (c *Cluster) recordMigrate(victim *VMHandle, hot, cool *Host, cands []decision.Candidate) {
	d := c.decCtl
	d.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindMigrate,
		Subject: victim.instName(),
		Winner:  cool.Name(),
		Detail: d.Text("migrate %s: %s -> %s (steal %.3f > %.3f)", trace.Str(victim.instName()),
			trace.Str(hot.Name()), trace.Str(cool.Name()), trace.Float(victim.stealFrac, 3), trace.Float(c.cfg.StealTrigger, 3)),
		Candidates: cands,
		Inputs: d.Inputs(
			decision.KV{Key: "from", Val: trace.Str(hot.Name())},
			decision.KV{Key: "steal", Val: trace.Float(victim.stealFrac, 3)},
			decision.KV{Key: "trigger", Val: trace.Float(c.cfg.StealTrigger, 3)},
			decision.KV{Key: "hot-score", Val: trace.Float(hot.Score(), 3)},
			decision.KV{Key: "threshold", Val: trace.Float(c.cfg.HotThreshold, 2)},
		),
	})
}

// recordCordon / recordUncordon audit a zone outage's edges.
func (c *Cluster) recordCordon(z *zoneState, dur sim.Time) {
	d := c.decCtl
	d.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindCordon,
		Subject: z.name,
		Winner:  z.name,
		Detail:  d.Text("zone %s cordoned for %v (%d hosts dark)", trace.Str(z.name), trace.Dur(dur), trace.Int(len(z.hosts))),
		Inputs: d.Inputs(
			decision.KV{Key: "hosts", Val: trace.Int(len(z.hosts))},
			decision.KV{Key: "for", Val: trace.Dur(dur)},
		),
	})
}

func (c *Cluster) recordUncordon(z *zoneState) {
	d := c.decCtl
	d.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindUncordon,
		Subject: z.name,
		Winner:  z.name,
		Detail:  d.Text("zone %s restored (%d hosts resume)", trace.Str(z.name), trace.Int(len(z.hosts))),
		Inputs:  d.Inputs(decision.KV{Key: "hosts", Val: trace.Int(len(z.hosts))}),
	})
}
