package sim

import (
	"fmt"
	"testing"
)

// TestQueueFIFO checks order across the rewind and compaction paths
// against a plain slice model.
func TestQueueFIFO(t *testing.T) {
	var q Queue[int]
	var model []int
	next := 0
	// Bursty pushes and pops: the queue drains (rewind), stays shallow
	// while the buffer fills (compaction) and grows past it.
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			model = append(model, next)
			next++
		}
		for i := 0; i < round%5+1 && len(model) > 0; i++ {
			if got := q.Pop(); got != model[0] {
				t.Fatalf("round %d: popped %d, want %d", round, got, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("round %d: len %d, want %d", round, q.Len(), len(model))
		}
	}
	if got := q.TakeAll(); fmt.Sprint(got) != fmt.Sprint(model) {
		t.Fatalf("TakeAll = %v, want %v", got, model)
	}
	if q.Len() != 0 {
		t.Fatalf("len %d after TakeAll", q.Len())
	}
}

// TestQueueSteadyStateZeroAllocs: a queue cycling at a bounded depth
// reuses its storage instead of reslicing it away.
func TestQueueSteadyStateZeroAllocs(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	for i := 0; i < 3; i++ {
		q.Push(v)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v allocs/op, want 0", allocs)
	}
}

// TestTimeAppendMatchesSprintf pins Time's strconv rendering to the
// fmt form it replaced, in every unit range.
func TestTimeAppendMatchesSprintf(t *testing.T) {
	for _, d := range []Time{-1, 0, 999, Microsecond, 1500, 999999, Millisecond, 123456789, Second, 3600 * Second} {
		var want string
		switch {
		case d >= Second:
			want = fmt.Sprintf("%.3fs", d.Seconds())
		case d >= Millisecond:
			want = fmt.Sprintf("%.3fms", d.Milliseconds())
		case d >= Microsecond:
			want = fmt.Sprintf("%.3fµs", d.Microseconds())
		default:
			want = fmt.Sprintf("%dns", int64(d))
		}
		if got := d.String(); got != want {
			t.Fatalf("Time(%d) = %q, want %q", int64(d), got, want)
		}
	}
}
