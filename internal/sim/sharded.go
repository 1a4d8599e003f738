package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ShardedEngine is a conservative parallel discrete-event coordinator:
// N independent Engines (shards) advance in lockstep through time
// windows bounded by a fixed lookahead — the known minimum latency of
// any cross-shard interaction. Within a window every shard's events are
// data-isolated, so shards may execute on a bounded goroutine pool; at
// the window boundary (a barrier) all shards are parked at the same
// virtual time and cross-shard traffic is exchanged.
//
// Determinism is by construction, not by luck:
//
//   - Cross-shard events are posted with delay >= lookahead (Post), so
//     a message sent inside a window (T, T+W], W <= lookahead, is
//     delivered strictly after the window ends. Shards therefore never
//     observe each other mid-window, and the worker count cannot change
//     what any shard computes. Posting with a shorter delay is a
//     lookahead violation: it panics, or reports through OnViolation
//     and is clamped to the lookahead.
//   - Mailboxes are merged at each barrier under the canonical key
//     (delivery time, source shard, post order) — the same trick the
//     experiment harness uses to merge parallel jobs — and inserted
//     into the destination engines single-threaded, so the destination
//     sequence numbers (and hence same-instant tie-breaks) are
//     identical for any worker count.
//   - Global synchronous work (control planes that legitimately read or
//     mutate many shards at one instant) runs as barrier tasks
//     (AtBarrier/EveryBarrier): windows truncate so a barrier lands
//     exactly at each task's due time, and the task executes while
//     every shard is parked at that time — exactly the semantics the
//     work had on a single shared engine.
//
// The zero value is not usable; call NewSharded.
type ShardedEngine struct {
	engines   []*Engine
	lookahead Time
	now       Time
	workers   int

	inWindow bool      // set while shard goroutines may be running
	outboxes [][]mail  // per-source-shard cross-shard posts this window
	scratch  []mail    // merge buffer reused across barriers
	active   []*Engine // shards with events due this window, reused

	tasks   []*barrierTask
	taskSeq uint64

	onBarrier []func(now Time)

	// OnViolation, when set, receives coordination-contract violations
	// (cross-shard posts inside the lookahead window, barrier tasks
	// scheduled in the past) instead of the coordinator panicking; the
	// offending event is then clamped to the earliest legal time.
	OnViolation func(name, detail string)
}

// mail is one cross-shard event awaiting delivery at the next barrier.
type mail struct {
	at   Time
	to   int
	name string
	fn   func()
}

// barrierTask is a global synchronous event: it runs at a window
// boundary with every shard parked at exactly its due time.
type barrierTask struct {
	at     Time
	seq    uint64
	period Time
	fn     func()
}

// NewSharded builds a coordinator over shards independent engines with
// the given lookahead (the minimum cross-shard event delay). It panics
// on a non-positive shard count or lookahead — a zero lookahead would
// make every window empty and the coordinator pointless.
func NewSharded(shards int, lookahead Time) *ShardedEngine {
	if shards <= 0 {
		panic(fmt.Sprintf("sim: sharded engine needs at least one shard (got %d)", shards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: sharded engine needs a positive lookahead (got %v)", lookahead))
	}
	s := &ShardedEngine{
		engines:   make([]*Engine, shards),
		outboxes:  make([][]mail, shards),
		lookahead: lookahead,
		workers:   1,
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
	}
	return s
}

// Shard returns shard i's engine. Shard-local work (the vast majority)
// schedules on it directly; only cross-shard traffic goes through Post.
func (s *ShardedEngine) Shard(i int) *Engine { return s.engines[i] }

// Shards returns the number of shards.
func (s *ShardedEngine) Shards() int { return len(s.engines) }

// Lookahead returns the minimum cross-shard event delay.
func (s *ShardedEngine) Lookahead() Time { return s.lookahead }

// Now returns the coordinator's clock: the last barrier time. Shard
// engines run ahead of it mid-window (each by at most the lookahead).
func (s *ShardedEngine) Now() Time { return s.now }

// Fired sums the events dispatched across all shards (the simulation's
// throughput numerator).
func (s *ShardedEngine) Fired() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Fired()
	}
	return n
}

// Pending sums the queued events across all shards.
func (s *ShardedEngine) Pending() int {
	n := 0
	for _, e := range s.engines {
		n += e.Pending()
	}
	return n
}

// SetWorkers bounds the goroutine pool that executes shard windows.
// One worker (the default) runs shards sequentially on the caller's
// goroutine — the serial mode. The output is identical either way; the
// worker count is invisible to the simulation by construction.
func (s *ShardedEngine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers returns the configured pool bound.
func (s *ShardedEngine) Workers() int { return s.workers }

// Post schedules fn on shard to at delay from shard from's current
// time. Called from inside from's window execution it buffers the
// event in from's outbox for delivery at the next barrier; called from
// barrier context (every shard parked) it schedules directly. A delay
// below the lookahead is a violation of the conservative-synchrony
// contract when posted mid-window — the destination may already have
// executed past the delivery time — so it panics (or reports through
// OnViolation and is clamped to the lookahead).
func (s *ShardedEngine) Post(from, to int, delay Time, name string, fn func()) {
	if delay < s.lookahead {
		s.lookaheadViolation(from, to, delay, name)
		delay = s.lookahead
	}
	at := s.engines[from].Now() + delay
	if !s.inWindow {
		s.engines[to].At(at, name, fn)
		return
	}
	s.outboxes[from] = append(s.outboxes[from], mail{at: at, to: to, name: name, fn: fn})
}

// lookaheadViolation is the cold path of Post: fmt work happens only
// once the contract is already broken.
//
//go:noinline
func (s *ShardedEngine) lookaheadViolation(from, to int, delay Time, name string) {
	detail := fmt.Sprintf("cross-shard post %q from shard %d to shard %d with delay %v < lookahead %v",
		name, from, to, delay, s.lookahead)
	if s.OnViolation == nil {
		panic("sim: " + detail)
	}
	s.OnViolation("lookahead-violation", detail)
}

// AtBarrier schedules fn as a global synchronous task at absolute time
// t: the window in progress when t comes due is truncated so a barrier
// lands exactly at t, and fn runs with every shard parked there.
// Scheduling in the past is a violation (panic, or report + clamp).
func (s *ShardedEngine) AtBarrier(t Time, name string, fn func()) {
	if t < s.now {
		detail := fmt.Sprintf("barrier task %q at %v before now %v", name, t, s.now)
		if s.OnViolation == nil {
			panic("sim: " + detail)
		}
		s.OnViolation("schedule-in-past", detail)
		t = s.now
	}
	s.tasks = append(s.tasks, &barrierTask{at: t, seq: s.taskSeq, fn: fn})
	s.taskSeq++
}

// EveryBarrier schedules fn as a periodic barrier task, first firing
// after d. A non-positive period is a violation (panic, or report and
// schedule nothing).
func (s *ShardedEngine) EveryBarrier(d Time, name string, fn func()) {
	if d <= 0 {
		detail := fmt.Sprintf("period %v for barrier task %q", d, name)
		if s.OnViolation == nil {
			panic("sim: " + detail)
		}
		s.OnViolation("non-positive-period", detail)
		return
	}
	s.tasks = append(s.tasks, &barrierTask{at: s.now + d, seq: s.taskSeq, period: d, fn: fn})
	s.taskSeq++
}

// OnBarrier registers fn to run at every barrier, after mailbox
// delivery and before due barrier tasks. The cluster layer drains
// per-shard observation outboxes here (served requests, occupancy
// intervals, finished spans) so control-plane tasks at the same
// barrier see every shard fact up to the barrier time.
func (s *ShardedEngine) OnBarrier(fn func(now Time)) {
	s.onBarrier = append(s.onBarrier, fn)
}

// nextTask returns the earliest pending barrier task by (at, seq), or
// nil. The task list is small (a handful of control-plane timers), so
// a linear scan beats heap bookkeeping.
func (s *ShardedEngine) nextTask() (*barrierTask, int) {
	var best *barrierTask
	idx := -1
	for i, t := range s.tasks {
		if best == nil || t.at < best.at || (t.at == best.at && t.seq < best.seq) {
			best, idx = t, i
		}
	}
	return best, idx
}

// Run advances all shards to the horizon in conservative windows:
// each round every shard executes independently up to
// min(now+lookahead, next barrier task, horizon), then the barrier
// exchanges cross-shard mail, runs drain hooks, and runs due tasks.
// When every shard is quiet and no mail or task is pending before the
// horizon it returns ErrDeadlock, mirroring Engine.Run.
func (s *ShardedEngine) Run(horizon Time) error {
	for s.now < horizon {
		end := s.now + s.lookahead
		if end > horizon {
			end = horizon
		}
		if bt, _ := s.nextTask(); bt != nil && bt.at < end {
			end = bt.at
		}
		if s.Pending() == 0 {
			if bt, _ := s.nextTask(); bt == nil {
				return fmt.Errorf("%w at %v (horizon %v)", ErrDeadlock, s.now, horizon)
			}
			// Only barrier tasks remain; like an engine whose next event
			// is beyond the horizon, the idle windows just advance the
			// clock.
		}
		s.runWindow(end)
		s.now = end
		s.barrier()
	}
	return nil
}

// runWindow executes every shard from its current time to end. Shards
// with no event due in the window are skipped inline — their clock
// just advances — so idle hosts cost no worker wakeup. With one worker
// the active shards run sequentially in index order on the calling
// goroutine; otherwise a bounded pool claims them off a shared
// counter. Either way each shard's window is single-threaded and
// isolated, so the schedule is identical.
func (s *ShardedEngine) runWindow(end Time) {
	if end <= s.now {
		return
	}
	// Partition: an engine whose next event lies beyond the window
	// would only execute `now = end` — doing that here skips the
	// wake/park round-trip that dominates when most shards are idle.
	active := s.active[:0]
	for _, e := range s.engines {
		if at, ok := e.NextAt(); ok && at <= end {
			active = append(active, e)
		} else {
			e.SkipTo(end)
		}
	}
	s.active = active
	if len(active) == 0 {
		return
	}
	s.inWindow = true
	n := s.workers
	if n > len(active) {
		n = len(active)
	}
	if n <= 1 {
		for _, e := range active {
			e.RunWindow(end)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func() {
				defer wg.Done()
				// Read the active set through s (stable until the
				// barrier): capturing the reassigned local would heap-
				// allocate a cell for it every window.
				for {
					i := int(next.Add(1)) - 1
					if i >= len(s.active) {
						return
					}
					s.active[i].RunWindow(end)
				}
			}()
		}
		wg.Wait()
	}
	s.inWindow = false
}

// barrier exchanges cross-shard mail, runs the drain hooks, then runs
// every barrier task due at the current time. All of it is
// single-threaded: the shards are parked.
func (s *ShardedEngine) barrier() {
	s.deliver()
	for _, fn := range s.onBarrier {
		fn(s.now)
	}
	for {
		bt, idx := s.nextTask()
		if bt == nil || bt.at > s.now {
			break
		}
		if bt.period > 0 {
			bt.at += bt.period
			bt.seq = s.taskSeq
			s.taskSeq++
		} else {
			last := len(s.tasks) - 1
			s.tasks[idx] = s.tasks[last]
			s.tasks[last] = nil
			s.tasks = s.tasks[:last]
		}
		bt.fn()
	}
}

// deliver merges every outbox and inserts the mail into the
// destination engines. Concatenating outboxes in shard order and
// stable-sorting by delivery time yields the canonical total order
// (time, source shard, post order) — independent of which worker ran
// which shard. Delivery times are strictly beyond the window just
// executed (the lookahead guarantees it), so insertion never schedules
// in a destination's past.
func (s *ShardedEngine) deliver() {
	all := s.scratch[:0]
	for i, ob := range s.outboxes {
		all = append(all, ob...)
		s.outboxes[i] = ob[:0]
	}
	if len(all) == 0 {
		s.scratch = all
		return
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	for i := range all {
		m := &all[i]
		s.engines[m.to].At(m.at, m.name, m.fn)
		m.fn = nil
	}
	s.scratch = all[:0]
}
