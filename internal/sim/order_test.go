package sim_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topology"
	"repro/internal/trace"
)

// shardedRig wires a ping-pong workload over n shards: every shard
// runs a local periodic event and posts cross-shard messages that
// re-post on arrival, exercising mailbox delivery, ordering, and the
// window/barrier machinery. Each shard appends to its own log
// (single-writer mid-window); logs are concatenated at the end. order,
// when non-nil, reorders each window's active shards.
func shardedRig(t *testing.T, shards int, order func([]*sim.Engine), lookahead, horizon sim.Time) (string, uint64) {
	t.Helper()
	s := sim.NewSharded(shards, lookahead)
	sim.SetShardOrder(s, order)
	logs := make([][]string, shards)
	var hop func(from, to, ttl int)
	hop = func(from, to, ttl int) {
		s.Post(from, to, lookahead+sim.Time(from+1)*sim.Microsecond, fmt.Sprintf("hop-%d-%d", from, to), func() {
			logs[to] = append(logs[to], fmt.Sprintf("%d recv from %d at %v", to, from, s.Shard(to).Now()))
			if ttl > 0 {
				hop(to, (to+1)%shards, ttl-1)
			}
		})
	}
	for i := 0; i < shards; i++ {
		i := i
		s.Shard(i).Every(37*sim.Microsecond+sim.Time(i)*sim.Microsecond, fmt.Sprintf("tick-%d", i), func() {
			logs[i] = append(logs[i], fmt.Sprintf("%d tick at %v", i, s.Shard(i).Now()))
		})
		s.Shard(i).After(5*sim.Microsecond, "seed", func() { hop(i, (i+3)%shards, 40) })
	}
	barriers := 0
	s.OnBarrier(func(now sim.Time) { barriers++ })
	s.EveryBarrier(90*sim.Microsecond, "epoch", func() {
		for j := range logs {
			logs[j] = append(logs[j], fmt.Sprintf("%d epoch at %v", j, s.Now()))
		}
	})
	if err := s.Run(horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	if barriers == 0 {
		t.Fatalf("no barriers ran")
	}
	if got := s.Now(); got != horizon {
		t.Fatalf("coordinator stopped at %v, want %v", got, horizon)
	}
	for i := 0; i < shards; i++ {
		if got := s.Shard(i).Now(); got != horizon {
			t.Fatalf("shard %d stopped at %v, want %v", i, got, horizon)
		}
	}
	return joinLogs(logs), s.Fired()
}

// randomRig builds a seeded random workload: a random shard count and
// lookahead, shard-local timers at random periods, and cross-shard
// chains posted to random shards with random delays >= lookahead.
// Every handler draws from its own shard's RNG and appends to its own
// shard's log, so the workload is shard-isolated by construction.
// Times sit on a coarse grid so same-instant deliveries from different
// sources — the merge key's tie-breaks — are common.
func randomRig(t *testing.T, seed uint64, order func([]*sim.Engine)) (string, uint64) {
	t.Helper()
	const grid = 10 * sim.Microsecond
	rng := sim.NewRNG(seed)
	shards := 2 + rng.Intn(7)
	lookahead := grid * sim.Time(1+rng.Intn(5))
	s := sim.NewSharded(shards, lookahead)
	sim.SetShardOrder(s, order)
	logs := make([][]string, shards)
	rngs := make([]*sim.RNG, shards)
	sent := make([]int, shards)
	for i := range rngs {
		rngs[i] = rng.Fork(uint64(i))
	}
	var send func(from, ttl int)
	send = func(from, ttl int) {
		r := rngs[from]
		to := r.Intn(shards)
		id := fmt.Sprintf("%d.%d", from, sent[from])
		sent[from]++
		s.Post(from, to, lookahead+grid*sim.Time(r.Intn(4)), "msg", func() {
			logs[to] = append(logs[to], fmt.Sprintf("%d got %s at %v", to, id, s.Shard(to).Now()))
			if ttl > 0 {
				send(to, ttl-1)
			}
		})
	}
	for i := 0; i < shards; i++ {
		i := i
		s.Shard(i).Every(grid*sim.Time(1+rngs[i].Intn(8)), "tick", func() {
			logs[i] = append(logs[i], fmt.Sprintf("%d tick at %v", i, s.Shard(i).Now()))
			if rngs[i].Intn(3) == 0 {
				send(i, rngs[i].Intn(4))
			}
		})
	}
	s.EveryBarrier(grid*sim.Time(1+rng.Intn(12)), "epoch", func() {
		for j := range logs {
			logs[j] = append(logs[j], fmt.Sprintf("%d epoch at %v fired %d", j, s.Now(), s.Shard(j).Fired()))
		}
	})
	if err := s.Run(200 * lookahead); err != nil {
		t.Fatalf("run: %v", err)
	}
	return joinLogs(logs), s.Fired()
}

// barrierPostRig writes from barrier context into a shard that has no
// events of its own: a periodic barrier task posts to the idle shard
// (scheduled directly, every shard parked), the idle shard answers
// with in-window posts, and on the coarse grid those answers and the
// busy shards' own mail share delivery instants.
func barrierPostRig(t *testing.T, order func([]*sim.Engine)) (string, uint64) {
	t.Helper()
	const shards, grid = 5, 10 * sim.Microsecond
	const idle = shards - 1
	lookahead := 3 * grid
	s := sim.NewSharded(shards, lookahead)
	sim.SetShardOrder(s, order)
	logs := make([][]string, shards)
	rngs := make([]*sim.RNG, shards)
	for i := range rngs {
		rngs[i] = sim.NewRNG(0xba77 + uint64(i))
	}
	for i := 0; i < idle; i++ {
		i := i
		s.Shard(i).Every(grid*sim.Time(2+i), "tick", func() {
			logs[i] = append(logs[i], fmt.Sprintf("%d tick at %v", i, s.Shard(i).Now()))
			if rngs[i].Intn(2) == 0 {
				to := rngs[i].Intn(shards)
				s.Post(i, to, lookahead+grid*sim.Time(rngs[i].Intn(3)), "mail", func() {
					logs[to] = append(logs[to], fmt.Sprintf("%d mail from %d at %v", to, i, s.Shard(to).Now()))
				})
			}
		})
	}
	k := 0
	s.EveryBarrier(7*grid, "poke-idle", func() {
		k++
		n, from := k, k%idle
		s.Post(from, idle, lookahead+grid*sim.Time(n%3), "poke", func() {
			logs[idle] = append(logs[idle], fmt.Sprintf("%d poke %d at %v fired %d", idle, n, s.Shard(idle).Now(), s.Shard(idle).Fired()))
			s.Post(idle, from, lookahead, "ack", func() {
				logs[from] = append(logs[from], fmt.Sprintf("%d ack %d at %v", from, n, s.Shard(from).Now()))
			})
		})
	})
	if err := s.Run(120 * lookahead); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(logs[idle]) == 0 {
		t.Fatalf("the idle shard never ran a barrier post")
	}
	return joinLogs(logs), s.Fired()
}

// decisionRig mints decision records on shard rings inside windows and
// from barrier context, between two merges: a barrier task runs after
// the barrier's Merge, so its records wait in their rings — one of
// them the ring of a shard with no events — for the next one.
func decisionRig(t *testing.T, order func([]*sim.Engine)) (string, uint64) {
	t.Helper()
	const shards = 4
	const idle = shards - 1
	lookahead := 40 * sim.Microsecond
	s := sim.NewSharded(shards, lookahead)
	sim.SetShardOrder(s, order)
	log := decision.NewLog(shards, decision.Options{})
	s.OnBarrier(func(sim.Time) { log.Merge() })
	for i := 0; i < idle; i++ {
		i := i
		ring, n := log.Ring(i), 0
		s.Shard(i).Every(sim.Time(13*(i+1))*sim.Microsecond, "tick", func() {
			n++
			ring.Add(decision.Record{At: s.Shard(i).Now(), Kind: decision.KindRoute, Subject: "tick",
				Winner: "-", Detail: ring.Text("tick %d", trace.Int(n))})
		})
	}
	k := 0
	s.EveryBarrier(60*sim.Microsecond, "mint", func() {
		k++
		for _, i := range []int{idle, k % idle} {
			ring := log.Ring(i)
			ring.Add(decision.Record{At: s.Now(), Kind: decision.KindPlace, Subject: "barrier",
				Winner: "-", Detail: ring.Text("minted %d", trace.Int(k))})
		}
		if got := log.DirtyRings(); got != 2 {
			t.Errorf("barrier at %v: %d dirty rings after minting on two, want 2", s.Now(), got)
		}
	})
	if err := s.Run(100 * lookahead); err != nil {
		t.Fatalf("run: %v", err)
	}
	log.Merge()
	var b strings.Builder
	for _, r := range log.Records() {
		fmt.Fprintf(&b, "%v %d/%d %s %s %s\n", r.At, r.Shard, r.Seq, r.Chooser, r.Subject, r.Detail)
	}
	return b.String(), s.Fired()
}

// clusterRig runs a two-zone outage rig with the watchdog, autoscaler,
// migration, spans and every decision kind on, so barrier tasks write
// after that barrier's drain: the watch epoch re-syncs occupancy into
// the host outboxes (feedWatcher), and placement, migration, cordon
// and autoscale decisions land on the control ring between merges.
// (No gate seals while a request routed to it is in transit — a
// migration's copy phase outlasts every transit — and cluster's
// TestSealedGateDeliveryPanics pins that contract.) The output is the result table, the decision
// log, the span export and the alerts.
func clusterRig(t *testing.T, order func([]*sim.Engine)) (string, uint64) {
	t.Helper()
	spec, err := topology.ParseLoadSpec("topo:zones=2,hosts=2,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
		"load:arrival=1ms,service=2ms,slo=25ms,duration=3s,drain=1s; ramp:1ms@0,450us@1s; " +
		"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=200ms; outage:zone=1,at=1500ms,for=500ms; " +
		"alert:budget=0.02,fast=200ms,slow=800ms,burn=3; autoscale:max=4,step=2,cooldown=400ms,down-after=400ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := experiments.ScaleConfig(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := span.NewTracer()
	cfg.Spans = tr
	cfg.Decisions = &decision.Options{Kinds: decision.AllKinds()}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetShardOrder(c.Sharded(), order)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failover == 0 || res.ScaleUps == 0 {
		t.Fatalf("rig did not fail over and scale (failover %d, scale-ups %d)", res.Failover, res.ScaleUps)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%+v\n", res)
	if err := decision.WriteJSON(&b, c.Decisions().Records(), c.Decisions().Dropped()); err != nil {
		t.Fatal(err)
	}
	if err := span.WriteChromeSpans(&b, []span.TrackSet{{Name: "rig", Spans: tr.Finished()}}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%+v\n", c.Watcher().Alerts())
	return b.String(), c.Sharded().Fired()
}

func joinLogs(logs [][]string) string {
	var b strings.Builder
	for _, l := range logs {
		for _, line := range l {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestShardedExecutionOrderInvisible is the core guarantee: shards are
// isolated within a window, so the order the coordinator runs them in
// is invisible to the simulation. Every shard's event log and the
// total fired count must be byte-identical whether each window's
// active shards run in index order, reversed, or shuffled. The rigs
// cover in-window mail and, because the coordinator and the cluster
// visit only what was written since the last barrier, writes made in
// barrier context too: posts to an idle shard, decision records minted
// between merges, and host outbox writes after a drain.
func TestShardedExecutionOrderInvisible(t *testing.T) {
	check := func(t *testing.T, rig func(order func([]*sim.Engine)) (string, uint64)) {
		t.Helper()
		base, baseFired := rig(nil)
		rng := sim.NewRNG(0x5eed)
		orders := map[string]func([]*sim.Engine){
			"reversed": slices.Reverse[[]*sim.Engine],
			"shuffled": func(a []*sim.Engine) {
				for i := len(a) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					a[i], a[j] = a[j], a[i]
				}
			},
		}
		for name, reorder := range orders {
			// Count windows where the order had a choice to make, so
			// the comparison cannot pass vacuously.
			multi := 0
			got, fired := rig(func(a []*sim.Engine) {
				if len(a) > 1 {
					multi++
				}
				reorder(a)
			})
			if multi == 0 {
				t.Fatalf("%s: no window had two active shards", name)
			}
			if got != base || fired != baseFired {
				t.Fatalf("%s order diverged from index order (fired %d vs %d)", name, fired, baseFired)
			}
		}
	}
	t.Run("ping-pong", func(t *testing.T) {
		check(t, func(order func([]*sim.Engine)) (string, uint64) {
			return shardedRig(t, 5, order, 50*sim.Microsecond, 3*sim.Millisecond)
		})
	})
	for seed := uint64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) {
			check(t, func(order func([]*sim.Engine)) (string, uint64) { return randomRig(t, seed, order) })
		})
	}
	t.Run("barrier-post-to-idle", func(t *testing.T) {
		check(t, func(order func([]*sim.Engine)) (string, uint64) { return barrierPostRig(t, order) })
	})
	t.Run("decision-between-merges", func(t *testing.T) {
		check(t, func(order func([]*sim.Engine)) (string, uint64) { return decisionRig(t, order) })
	})
	t.Run("cluster-barrier-writes", func(t *testing.T) {
		check(t, func(order func([]*sim.Engine)) (string, uint64) { return clusterRig(t, order) })
	})
}
