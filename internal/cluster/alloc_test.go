package cluster

import (
	"testing"

	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/workload"
)

// routeRig is a short rack whose arrival stream has ended and whose
// in-transit requests have all landed, so a test can route requests
// by hand from barrier context.
func routeRig(t *testing.T, opt *decision.Options) *Cluster {
	t.Helper()
	cfg := shortConfig()
	cfg.Duration = sim.Second
	cfg.Decisions = opt
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.sh.Run(cfg.Duration + 100*sim.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, h := range c.hosts {
		if h.inbound.Len() != 0 {
			t.Fatalf("%s has %d requests in transit after the stream ended", h.Name(), h.inbound.Len())
		}
	}
	return c
}

// routeOnce routes one request and lands it on its replica's gate:
// the path every arrival takes, from route to deliverReq.
func routeOnce(c *Cluster) {
	c.route(workload.Request{Arrival: c.ctl.Now()})
	for _, h := range c.hosts {
		if h.inbound.Len() > 0 {
			h.deliverFn()
		}
	}
}

// TestRouteDeliverZeroAllocs: the arrival and delivery callbacks are
// bound once and each request rides a per-host FIFO to its delivery,
// so routing allocates nothing with the decision log off.
func TestRouteDeliverZeroAllocs(t *testing.T) {
	c := routeRig(t, nil)
	routeOnce(c)
	var submitted int64
	allocs := testing.AllocsPerRun(500, func() { routeOnce(c) })
	for _, hd := range c.servers {
		for _, g := range hd.gates {
			submitted += g.Submitted()
		}
	}
	if allocs != 0 {
		t.Fatalf("route → deliverReq allocates %v allocs/op, want 0", allocs)
	}
	if submitted < 501 {
		t.Fatalf("%d requests reached a gate, want at least 501", submitted)
	}
}

// TestRouteDeliverRecordedZeroAllocs is the same path with every route
// decision recorded: the record is typed and carved from the ring's
// slabs, so it costs no allocation of its own.
func TestRouteDeliverRecordedZeroAllocs(t *testing.T) {
	c := routeRig(t, &decision.Options{Kinds: []decision.Kind{decision.KindRoute}})
	routeOnce(c)
	allocs := testing.AllocsPerRun(500, func() { routeOnce(c) })
	if allocs != 0 {
		t.Fatalf("recorded route → deliverReq allocates %v allocs/op, want 0", allocs)
	}
	c.decLog.Merge()
	recs := c.decLog.Records()
	last := recs[len(recs)-1]
	if last.Kind != decision.KindRoute || len(last.Candidates) == 0 {
		t.Fatalf("last record %+v is not a scored route", last)
	}
	if got, want := last.Detail.String(), "req@"+c.ctl.Now().String()+" to "+last.Winner; len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("route detail %q, want prefix %q", got, want)
	}
}

// TestHostNameCached: host names are built once, not per occupancy
// record or decision.
func TestHostNameCached(t *testing.T) {
	c, err := New(shortConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := c.hosts[1]
	if h.Name() != "host1" {
		t.Fatalf("name %q", h.Name())
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = h.Name() }); allocs != 0 {
		t.Fatalf("Host.Name allocates %v allocs/op, want 0", allocs)
	}
}
