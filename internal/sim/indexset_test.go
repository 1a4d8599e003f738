package sim

import (
	"slices"
	"testing"
)

// TestIndexSetTakeWalksInOrder: a walk visits members in ascending
// order across words, and a member added mid-walk is visited in the
// same walk only if it lies above the cursor — the order a full scan
// over the indices would visit them in.
func TestIndexSetTakeWalksInOrder(t *testing.T) {
	s := NewIndexSet(130)
	for _, i := range []int{70, 3, 64, 5, 129, 5} {
		s.Add(i)
	}
	if n := s.Len(); n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
	var got []int
	for i := s.Take(-1); i >= 0; i = s.Take(i) {
		got = append(got, i)
		if i == 5 {
			s.Add(1)  // below the cursor: next walk
			s.Add(66) // above it: this walk
		}
	}
	if want := []int{3, 5, 64, 66, 70, 129}; !slices.Equal(got, want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
	if i, n := s.Take(-1), s.Len(); i != 1 || n != 0 {
		t.Fatalf("next walk starts at %d with %d left, want 1 with none", i, n)
	}
}
