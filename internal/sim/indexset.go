package sim

import "math/bits"

// IndexSet is a set of small non-negative indices (shards, hosts,
// rings), one bit each. The barrier-time consumers use it as a dirty
// list: producers Add the index whose buffer they wrote, and the
// barrier walks the members in ascending order with Take, so its cost
// follows the members, not the number of indices.
type IndexSet []uint64

// NewIndexSet returns an empty set for indices in [0, n).
func NewIndexSet(n int) IndexSet { return make(IndexSet, (n+63)/64) }

// Add inserts i.
func (s IndexSet) Add(i int) { s[uint(i)/64] |= 1 << (uint(i) % 64) }

// Len returns the number of members.
func (s IndexSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Take removes and returns the smallest member above after, or -1.
// Walking with Take(-1), Take(i), ... visits the members in ascending
// order; a member added mid-walk is visited in the same walk if it
// lies above the cursor and stays for the next walk otherwise.
func (s IndexSet) Take(after int) int {
	next := uint(after + 1)
	first := next / 64
	for w := first; w < uint(len(s)); w++ {
		m := s[w]
		if w == first {
			m &= ^uint64(0) << (next % 64)
		}
		if m != 0 {
			b := uint(bits.TrailingZeros64(m))
			s[w] &^= 1 << b
			return int(w*64 + b)
		}
	}
	return -1
}
