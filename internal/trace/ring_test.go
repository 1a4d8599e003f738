package trace

import (
	"slices"
	"testing"
)

func ringInts(r *Ring[int]) []int { return r.AppendTo(nil) }

func TestRingGrowthStopsAtLimit(t *testing.T) {
	const limit = 1000
	r := NewRing[int](limit)
	if r.Cap() != 0 {
		t.Fatalf("new ring holds %d slots before the first push", r.Cap())
	}
	var caps []int
	for i := 0; i < 5*limit; i++ {
		r.Push(i)
		if r.Len() > limit {
			t.Fatalf("len %d past the limit after %d pushes", r.Len(), i+1)
		}
		if c := r.Cap(); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	// Growth doubles (at least) from minRingGrow until the limit is
	// reached, then stops: a full ring never reallocates.
	if caps[0] < minRingGrow || caps[len(caps)-1] < limit || len(caps) > 6 {
		t.Fatalf("capacity steps = %v", caps)
	}
	for i := 1; i < len(caps); i++ {
		if caps[i] < 2*caps[i-1] && caps[i] < limit {
			t.Fatalf("capacity steps = %v: step %d does not double", caps, i)
		}
	}
	if r.Len() != limit || r.Dropped() != 4*limit {
		t.Fatalf("len %d dropped %d, want %d and %d", r.Len(), r.Dropped(), limit, 4*limit)
	}
}

func TestRingOldestFirstAcrossWrap(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 11; i++ {
		r.Push(i)
	}
	want := []int{7, 8, 9, 10}
	if got := ringInts(&r); !slices.Equal(got, want) {
		t.Fatalf("AppendTo = %v, want %v", got, want)
	}
	for i, w := range want {
		if got := *r.At(i); got != w {
			t.Fatalf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestRingDroppedAccumulates(t *testing.T) {
	r := NewRing[int](3)
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	r.Reset()
	for i := 0; i < 7; i++ {
		r.Push(i)
	}
	// Evictions count over the ring's lifetime, across a reset.
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

func TestRingUnbounded(t *testing.T) {
	for _, limit := range []int{0, -1} {
		r := NewRing[int](limit)
		for i := 0; i < 5000; i++ {
			r.Push(i)
		}
		got := ringInts(&r)
		if len(got) != 5000 || got[0] != 0 || got[4999] != 4999 || r.Dropped() != 0 {
			t.Fatalf("limit %d: kept %d (first %d), dropped %d", limit, len(got), got[0], r.Dropped())
		}
	}
}

func TestRingResetKeepsCapacity(t *testing.T) {
	r := NewRing[*int](8)
	x := 1
	for i := 0; i < 13; i++ {
		r.Push(&x)
	}
	c := r.Cap()
	r.Reset()
	if r.Len() != 0 || r.Cap() != c {
		t.Fatalf("after reset len %d cap %d, want 0 and %d", r.Len(), r.Cap(), c)
	}
	r.Push(nil)
	r.Push(&x)
	if got := r.AppendTo(nil); len(got) != 2 || got[1] != &x {
		t.Fatalf("ring after reset = %v", got)
	}
}

func TestRingPushAllocationFree(t *testing.T) {
	r := NewRing[record](64)
	for i := 0; i < 64; i++ {
		r.Push(record{})
	}
	allocs := testing.AllocsPerRun(100, func() { r.Push(record{kind: KindSA}) })
	if allocs != 0 {
		t.Fatalf("Push at steady state allocates %.1f times, want 0", allocs)
	}
}
