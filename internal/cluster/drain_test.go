package cluster

import (
	"slices"
	"testing"

	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/workload"
)

// members lists s in ID order without changing it.
func members(s sim.IndexSet) []int {
	cp := slices.Clone(s)
	var ids []int
	for id := cp.Take(-1); id >= 0; id = cp.Take(id) {
		ids = append(ids, id)
	}
	return ids
}

// TestIdleBarrierDrainsNothing: a barrier drain visits only the hosts
// and decision rings written since the last one. One routed request
// dirties the control ring and its target host; after the drain
// nothing is left, so an idle barrier drains zero hosts and merges
// zero rings.
func TestIdleBarrierDrainsNothing(t *testing.T) {
	c := routeRig(t, &decision.Options{Kinds: []decision.Kind{decision.KindRoute}})
	now := c.sh.Now()
	c.drain(now) // take what the last barrier's tasks wrote
	idle := func(when string) {
		t.Helper()
		if d, o, r := members(c.dirty), members(c.occDirty), c.decLog.DirtyRings(); len(d)+len(o)+r != 0 {
			t.Fatalf("%s: dirty hosts %v, occupancy hosts %v, dirty rings %d; want none", when, d, o, r)
		}
	}
	idle("after a drain")

	records := len(c.decLog.Records())
	routeOnce(c)
	var wrote []int
	for _, h := range c.hosts {
		if len(h.outbox.delivered) > 0 {
			wrote = append(wrote, h.ID)
		}
	}
	if len(wrote) != 1 {
		t.Fatalf("hosts %v hold a delivered record after one routed request, want one", wrote)
	}
	if d := members(c.dirty); !slices.Equal(d, wrote) {
		t.Fatalf("dirty hosts %v after one delivery, want %v", d, wrote)
	}
	if r := c.decLog.DirtyRings(); r != 1 {
		t.Fatalf("%d dirty rings after one route record, want 1", r)
	}

	c.drain(now)
	idle("after draining the routed request")
	if got := len(c.decLog.Records()); got != records+1 {
		t.Fatalf("merged %d records, want %d", got, records+1)
	}
	c.drain(now)
	idle("after an idle drain")
	if got := len(c.decLog.Records()); got != records+1 {
		t.Fatalf("idle drain changed the log: %d records, want %d", got, records+1)
	}
}

// TestBounceDrainsAtNextBarrier forces the bounce path: a request is
// routed, its target gate seals before it lands, and it bounces into
// the host's outbox. The host is dirty until the next drain, which
// hands the request to the migration's carried set.
func TestBounceDrainsAtNextBarrier(t *testing.T) {
	c := routeRig(t, nil)
	c.drain(c.sh.Now())
	routed := map[*VMHandle]int64{}
	for _, hd := range c.servers {
		routed[hd] = hd.routed
	}
	c.route(workload.Request{Arrival: c.ctl.Now()})
	var target *VMHandle
	for _, hd := range c.servers {
		if hd.routed != routed[hd] {
			target = hd
		}
	}
	if target == nil {
		t.Fatal("route picked no replica")
	}
	target.carried = append(target.carried, target.gate.Close()...)
	carried := len(target.carried)
	target.host.deliverFn()
	if d := members(c.dirty); !slices.Equal(d, []int{target.host.ID}) {
		t.Fatalf("dirty hosts %v after a bounce on %s, want [%d]", d, target.host.Name(), target.host.ID)
	}
	c.drain(c.sh.Now())
	if d := members(c.dirty); len(d) != 0 {
		t.Fatalf("dirty hosts %v after the drain, want none", d)
	}
	if got := len(target.carried); got != carried+1 {
		t.Fatalf("carried %d requests after the bounce drained, want %d", got, carried+1)
	}
}

// TestBarrierOccupancyFlushedByFeed: occupancy a host emits in barrier
// context after the drain (the watch epoch's accounting re-sync) marks
// the host for drainOccupancy, which feedWatcher runs before the
// watcher reads the store.
func TestBarrierOccupancyFlushedByFeed(t *testing.T) {
	c, err := New(watchConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Stop between watch epochs, so the pCPUs have accrued occupancy
	// since the last re-sync.
	if err := c.sh.Run(sim.Second + 4*c.lookahead); err != nil {
		t.Fatal(err)
	}
	c.drain(c.sh.Now())
	c.drainOccupancy()
	h := c.hosts[0]
	h.HV.SyncOccupancyAccounting()
	if o := members(c.occDirty); len(h.outbox.occ) == 0 || !slices.Equal(o, []int{h.ID}) {
		t.Fatalf("re-sync left %d occupancy records and occupancy hosts %v, want records on [%d]", len(h.outbox.occ), o, h.ID)
	}
	c.feedWatcher(c.sh.Now())
	if o := members(c.occDirty); len(h.outbox.occ) != 0 || len(o) != 0 {
		t.Fatalf("feed left %d occupancy records and occupancy hosts %v, want none", len(h.outbox.occ), o)
	}
}
