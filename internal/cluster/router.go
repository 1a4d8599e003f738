package cluster

import (
	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The router is the cluster's front door: an open-loop Poisson stream
// of requests on the control shard. Routing is partitioned by zone —
// the outer level picks a zone by least mean outstanding work per live
// replica (skipping cordoned zones, so an outage fails traffic over
// automatically), the inner level runs join-shortest-queue over that
// zone's replicas only. With one flat zone the outer level collapses
// to a constant and the inner JSQ is exactly the old global router.
// Each dispatch posts to the replica's host shard with the transit
// latency (= the lookahead), so routing never reads another shard
// mid-window. The load view is routed minus served-as-seen-at-the-
// last-barrier — the slightly stale picture a real front door has. A
// replica under migration or autoscaler drain is cordoned so its queue
// empties before the switchover; when no replica is available at all
// (early arrivals, every server mid-switchover, every zone dark) the
// request is held back and flushed as soon as a gate opens, original
// timestamp intact, so its wait shows up in the measured latency.

// arrivalMean returns the mean inter-arrival time in effect at now:
// the flat Arrival, or the active stage of the configured ramp. The
// stage cursor only moves forward — arrivals consume time
// monotonically.
func (c *Cluster) arrivalMean(now sim.Time) sim.Time {
	ramp := c.cfg.Ramp
	if len(ramp) == 0 {
		return c.cfg.Arrival
	}
	for c.rampIdx+1 < len(ramp) && ramp[c.rampIdx+1].At <= now {
		c.rampIdx++
	}
	if ramp[c.rampIdx].At <= now {
		return ramp[c.rampIdx].Arrival
	}
	return c.cfg.Arrival // before the first stage
}

// nextArrival generates one cluster request and re-arms itself until
// the stream duration elapses. Runs on the control shard.
func (c *Cluster) nextArrival() {
	now := c.ctl.Now()
	if now >= c.cfg.Duration {
		return
	}
	c.generated++
	// Admission is where the causal span is born: everything that happens
	// to the request from here on is somebody's fault.
	c.route(workload.Request{Arrival: now, Span: c.cfg.Spans.Start(now)})
	c.ctl.After(c.arrivalRNG.Exp(c.arrivalMean(now)), "cluster-arrival", c.arrivalFn)
}

// route dispatches one request stamped with its arrival time: pick a
// zone (trivial with one), then the replica with the fewest
// outstanding requests inside it (ties to the earliest admitted), and
// post the delivery to its host's shard one transit latency out.
func (c *Cluster) route(req workload.Request) {
	z := c.zones[0]
	failover := false
	if len(c.zones) > 1 {
		zi := topology.RouteZone(c.zoneRoutes())
		if zi < 0 {
			if c.decCtl.Wants(decision.KindRoute) {
				c.recordRouteBuffered(req, "")
			}
			c.buffered = append(c.buffered, req)
			return
		}
		z = c.zones[zi]
		if c.cordonedZones > 0 {
			c.failoverRouted++
			failover = true
		}
	}
	var best *VMHandle
	var bestLoad int64
	for _, hd := range z.servers {
		if !routable(hd) {
			continue
		}
		load := hd.routed - hd.servedSeen
		if best == nil || load < bestLoad {
			best, bestLoad = hd, load
		}
	}
	if best == nil {
		if c.decCtl.Wants(decision.KindRoute) {
			c.recordRouteBuffered(req, z.name)
		}
		c.buffered = append(c.buffered, req)
		return
	}
	if c.decCtl.Wants(decision.KindRoute) {
		c.recordRoute(req, z, best, failover)
	}
	z.routed++
	best.routed++
	host := best.host
	host.inbound.Push(delivery{hd: best, gate: best.gate, req: req})
	c.sh.Post(ctlShard, host.ID+1, c.lookahead, "deliver", host.deliverFn)
}

// delivery is one routed request in transit to its host, with the
// replica and gate that were live at routing time.
type delivery struct {
	hd   *VMHandle
	gate *workload.RemoteGate
	req  workload.Request
}

// deliverNext lands the oldest request in transit to host. Every
// delivery to a host is posted from the control shard with the same
// delay, so the engine runs them in post order — the (time, source
// shard, post order) key — and each one pops exactly the request its
// post pushed. Runs on host's shard.
func (c *Cluster) deliverNext(host *Host) {
	d := host.inbound.Pop()
	c.deliverReq(d.hd, host, d.gate, d.req)
}

// deliverReq lands one routed request on its host shard. The gate is
// the one that was live at routing time; if a migration sealed it while
// the request was in transit, the request bounces through the outbox
// and the next barrier re-routes it to the successor instance (or into
// the migration's carried set). Runs on host's shard.
func (c *Cluster) deliverReq(hd *VMHandle, host *Host, gate *workload.RemoteGate, req workload.Request) {
	host.spans.Adopt(req.Span)
	if gate.SubmitReq(req) {
		host.outbox.delivered = append(host.outbox.delivered, hd)
		return
	}
	req.Span.Transition(host.eng.Now(), span.CatVMMigr)
	host.outbox.bounced = append(host.outbox.bounced, bounceRec{hd: hd, req: req})
}

// flushBuffered re-routes requests held back while no replica was
// available. Barrier context (admission, migration completion, outage
// recovery).
func (c *Cluster) flushBuffered() {
	if len(c.buffered) == 0 {
		return
	}
	held := c.buffered
	c.buffered = nil
	for _, req := range held {
		c.route(req)
	}
}
