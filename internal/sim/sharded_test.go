package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestShardedLookaheadViolation pins the conservative-synchrony
// invariant: posting a cross-shard event with delay < lookahead inside
// a window panics without a hook, and with OnViolation set it reports
// and clamps the delay to the lookahead.
func TestShardedLookaheadViolation(t *testing.T) {
	t.Run("panics", func(t *testing.T) {
		s := NewSharded(2, 100*Microsecond)
		s.Shard(0).After(10*Microsecond, "bad-post", func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("in-window post below lookahead did not panic")
					return
				}
				if !strings.Contains(fmt.Sprint(r), "lookahead") {
					t.Errorf("panic %q does not mention lookahead", r)
				}
			}()
			s.Post(0, 1, 5*Microsecond, "too-soon", func() {})
		})
		s.EveryBarrier(150*Microsecond, "keepalive", func() {})
		if err := s.Run(200 * Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	t.Run("reported and clamped", func(t *testing.T) {
		s := NewSharded(2, 100*Microsecond)
		var viols []string
		s.OnViolation = func(name, detail string) {
			viols = append(viols, name+": "+detail)
		}
		var deliveredAt Time
		s.Shard(0).After(10*Microsecond, "bad-post", func() {
			s.Post(0, 1, 5*Microsecond, "too-soon", func() { deliveredAt = s.Shard(1).Now() })
		})
		s.EveryBarrier(150*Microsecond, "keepalive", func() {})
		if err := s.Run(400 * Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(viols) != 1 || !strings.Contains(viols[0], "lookahead-violation") {
			t.Fatalf("violations = %v, want one lookahead-violation", viols)
		}
		if want := 110 * Microsecond; deliveredAt != want {
			t.Fatalf("clamped delivery at %v, want %v (post time + lookahead)", deliveredAt, want)
		}
	})
}

// TestShardedBarrierTasks checks that barrier tasks run at exactly
// their due times with every shard parked there, that windows truncate
// to land barriers on task times, and that periodic tasks re-arm.
func TestShardedBarrierTasks(t *testing.T) {
	s := NewSharded(3, 70*Microsecond)
	var at []Time
	s.AtBarrier(105*Microsecond, "once", func() {
		at = append(at, s.Now())
		for i := 0; i < s.Shards(); i++ {
			if got := s.Shard(i).Now(); got != s.Now() {
				t.Errorf("shard %d at %v during barrier at %v", i, got, s.Now())
			}
		}
	})
	var every []Time
	s.EveryBarrier(100*Microsecond, "periodic", func() { every = append(every, s.Now()) })
	// Keep the shards busy so the run isn't a deadlock.
	for i := 0; i < 3; i++ {
		s.Shard(i).Every(11*Microsecond, "tick", func() {})
	}
	if err := s.Run(350 * Microsecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(at) != 1 || at[0] != 105*Microsecond {
		t.Fatalf("one-shot barrier task ran at %v, want exactly once at 105µs", at)
	}
	if want := []Time{100 * Microsecond, 200 * Microsecond, 300 * Microsecond}; len(every) != len(want) {
		t.Fatalf("periodic barrier task ran at %v, want %v", every, want)
	} else {
		for i := range want {
			if every[i] != want[i] {
				t.Fatalf("periodic barrier task ran at %v, want %v", every, want)
			}
		}
	}
}

// TestShardedDeadlock mirrors Engine.Run: a coordinator with no
// pending events, mail, or barrier tasks before the horizon reports
// ErrDeadlock rather than spinning to the horizon.
func TestShardedDeadlock(t *testing.T) {
	s := NewSharded(2, 50*Microsecond)
	s.Shard(0).After(30*Microsecond, "only", func() {})
	err := s.Run(Millisecond)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestShardedMailboxOrdering pins the canonical merge key: two posts
// delivered to one shard at the same virtual time fire in source-shard
// order regardless of post timing inside the window.
func TestShardedMailboxOrdering(t *testing.T) {
	s := NewSharded(3, 100*Microsecond)
	var order []int
	// Shard 2 posts first in wall-clock terms (lower window cost), but
	// shard 1 is the lower source index; both deliveries land on shard
	// 0 at the same instant and must fire in source order 1, 2.
	s.Shard(2).After(10*Microsecond, "from-2", func() {
		s.Post(2, 0, 100*Microsecond, "b", func() { order = append(order, 2) })
	})
	s.Shard(1).After(10*Microsecond, "from-1", func() {
		s.Post(1, 0, 100*Microsecond, "a", func() { order = append(order, 1) })
	})
	s.EveryBarrier(500*Microsecond, "keepalive", func() {})
	if err := s.Run(Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}
}

// TestEngineRunWindow covers the window primitive directly: events at
// or before the window end fire, later ones stay queued, and an empty
// queue still advances the clock (no deadlock mid-rack).
func TestEngineRunWindow(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.At(10*Microsecond, "a", func() { fired = append(fired, "a") })
	e.At(50*Microsecond, "b", func() { fired = append(fired, "b") })
	e.At(80*Microsecond, "c", func() { fired = append(fired, "c") })
	e.RunWindow(50 * Microsecond)
	if got := strings.Join(fired, ","); got != "a,b" {
		t.Fatalf("fired %q in first window, want a,b", got)
	}
	if e.Now() != 50*Microsecond {
		t.Fatalf("now = %v, want 50µs", e.Now())
	}
	e.RunWindow(60 * Microsecond) // empty window: clock still advances
	if e.Now() != 60*Microsecond || len(fired) != 2 {
		t.Fatalf("empty window mishandled: now=%v fired=%v", e.Now(), fired)
	}
	e.RunWindow(100 * Microsecond)
	if got := strings.Join(fired, ","); got != "a,b,c" {
		t.Fatalf("fired %q, want a,b,c", got)
	}
}

// TestBarrierWorkProportionalToActivity pins the coordinator's
// counters: deliver visits exactly the outboxes of shards that posted
// in the window, so a window without posts visits none.
func TestBarrierWorkProportionalToActivity(t *testing.T) {
	const lookahead = 100 * Microsecond
	s := NewSharded(8, lookahead)
	noop := func() {}
	s.Shard(5).At(10*Microsecond, "post", func() {
		s.Post(5, 0, lookahead, "m", noop)
		s.Post(5, 1, lookahead, "m", noop)
	})
	s.Shard(2).At(20*Microsecond, "post", func() { s.Post(2, 7, lookahead, "m", noop) })
	s.EveryBarrier(lookahead, "keepalive", noop)
	steps := []struct {
		name string
		want WindowStats
	}{
		// Shards 2 and 5 run and post three messages between them.
		{"posting window", WindowStats{Windows: 1, ActiveShards: 2, Mail: 3, Outboxes: 2}},
		// The mail lands on shards 0, 1 and 7, which post nothing.
		{"delivery window", WindowStats{Windows: 2, ActiveShards: 5, Mail: 3, Outboxes: 2}},
		{"idle window", WindowStats{Windows: 3, ActiveShards: 5, Mail: 3, Outboxes: 2}},
	}
	for i, st := range steps {
		if err := s.Run(Time(i+1) * lookahead); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := s.Stats(); got != st.want {
			t.Fatalf("%s: stats %+v, want %+v", st.name, got, st.want)
		}
	}
}

// TestShardedWindowZeroAllocs: a steady stream of windows with
// cross-shard mail reuses the outboxes, the posted list and the merge
// buffer, and the counters are plain increments, so the window loop
// allocates nothing.
func TestShardedWindowZeroAllocs(t *testing.T) {
	const lookahead = 100 * Microsecond
	s := NewSharded(4, lookahead)
	noop := func() {}
	for i := 1; i < 4; i++ {
		i := i
		s.Shard(i).Every(30*Microsecond, "post", func() { s.Post(i, (i+1)%4, lookahead, "m", noop) })
	}
	horizon := Time(0)
	window := func() {
		horizon += lookahead
		if err := s.Run(horizon); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		window()
	}
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("window loop allocates %v allocs/window, want 0", allocs)
	}
	// 111 windows of 100µs, three shards posting every 30µs in each.
	if st := s.Stats(); st.Windows != 111 || st.Outboxes != 3*111 || st.Mail != 3*370 {
		t.Fatalf("stats %+v: want 111 windows, 333 outboxes visited, 1110 mail", st)
	}
}
