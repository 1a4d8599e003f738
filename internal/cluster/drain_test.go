package cluster

import (
	"fmt"
	"slices"
	"strings"
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

// TestSealedGateDeliveryPanics pins the delivery contract: no gate
// seals while a request routed to it is in transit, so a request that
// lands on a sealed gate is a broken invariant, not a case to recover
// from. The test seals the target gate by hand between routing and
// delivery, which no configuration does.
func TestSealedGateDeliveryPanics(t *testing.T) {
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
	target.gate.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("delivery to a sealed gate did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "after its gate sealed") || !strings.Contains(msg, target.host.Name()) {
			t.Fatalf("panic %q does not name the sealed gate's host", msg)
		}
	}()
	target.host.deliverFn()
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
