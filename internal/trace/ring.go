package trace

import "slices"

// minRingGrow is the first allocation of a bounded ring, so a ring
// that records a handful of entries does not double through 1, 2, 4...
const minRingGrow = 64

// Ring is the bounded FIFO buffer every observability log keeps its
// recent history in. It grows by doubling up to its limit, then
// overwrites the oldest entry and counts the eviction in Dropped; a
// limit <= 0 means unbounded. Storage is allocated on first Push, so an
// idle ring costs nothing, and a push at steady state allocates
// nothing. Entries are read oldest first.
type Ring[T any] struct {
	limit   int
	buf     []T
	head    int // index of the oldest entry once the ring has wrapped
	dropped uint64
}

// NewRing returns an empty ring keeping at most limit entries
// (limit <= 0 = unbounded).
func NewRing[T any](limit int) Ring[T] { return Ring[T]{limit: limit} }

// Push appends v, evicting the oldest entry when the ring is full.
func (r *Ring[T]) Push(v T) {
	if r.limit > 0 && len(r.buf) == r.limit {
		r.buf[r.head] = v
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
		r.dropped++
		return
	}
	if len(r.buf) == cap(r.buf) {
		r.grow()
	}
	r.buf = append(r.buf, v)
}

// grow doubles the storage, to at least minRingGrow and at most the
// limit (plus the allocator's size-class rounding).
func (r *Ring[T]) grow() {
	n := max(2*len(r.buf), minRingGrow)
	if r.limit > 0 {
		n = min(n, r.limit)
	}
	r.buf = slices.Grow(r.buf, n-len(r.buf))
}

// Len returns the number of retained entries.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Cap returns the entries the ring can hold without allocating.
func (r *Ring[T]) Cap() int { return cap(r.buf) }

// Dropped returns how many entries have been evicted over the ring's
// lifetime; Reset does not clear it.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// At returns the i-th oldest retained entry, 0 <= i < Len.
func (r *Ring[T]) At(i int) *T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// AppendTo appends the retained entries to dst, oldest first. It
// copies entry by entry: the decision log drains a mostly empty or
// near-empty ring per shard at every barrier, where a bulk copy's
// runtime call costs more than the copy.
func (r *Ring[T]) AppendTo(dst []T) []T {
	for i := range r.buf {
		dst = append(dst, *r.At(i))
	}
	return dst
}

// Reset empties the ring for reuse, keeping its storage. Entries are
// not zeroed: the slots keep their old values until overwritten.
func (r *Ring[T]) Reset() {
	r.buf = r.buf[:0]
	r.head = 0
}
