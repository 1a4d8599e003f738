package span

import (
	"testing"

	"repro/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

func TestSpanTilesWallExactly(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(us(100))
	s.BeginPhase(us(150), "service", CatKernel)
	s.Transition(us(152), CatService)
	s.Transition(us(200), CatPreemptWait)
	s.Transition(us(230), CatService)
	s.Finish(us(260))

	if !s.Finished() || s.Wall() != us(160) {
		t.Fatalf("wall = %v, want 160µs", s.Wall())
	}
	if err := s.ConservationError(); err != 0 {
		t.Fatalf("conservation error = %v, want 0", err)
	}
	tot := s.Totals()
	if tot[CatQueueWait] != us(50) || tot[CatKernel] != us(2) ||
		tot[CatService] != us(78) || tot[CatPreemptWait] != us(30) {
		t.Fatalf("totals = %v", tot)
	}

	// The segments of each phase tile the phase; the phases tile the span.
	if len(s.Phases) != 2 || s.Phases[0].Name != "queue" || s.Phases[1].Name != "service" {
		t.Fatalf("phases = %+v", s.Phases)
	}
	cursor := s.Start
	for _, p := range s.Phases {
		if p.Start != cursor {
			t.Fatalf("phase %s starts at %v, previous ended at %v", p.Name, p.Start, cursor)
		}
		at := p.Start
		for _, seg := range p.Segments {
			if seg.Start != at {
				t.Fatalf("segment gap in %s: %v != %v", p.Name, seg.Start, at)
			}
			if seg.Dur() <= 0 {
				t.Fatalf("empty segment survived: %+v", seg)
			}
			at = seg.End
		}
		if at != p.End {
			t.Fatalf("phase %s segments end at %v, phase ends at %v", p.Name, at, p.End)
		}
		cursor = p.End
	}
	if cursor != s.End {
		t.Fatalf("phases end at %v, span ends at %v", cursor, s.End)
	}
}

func TestSpanCoalescesAndDropsZeroLength(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(us(0))
	s.BeginPhase(us(10), "service", CatService)
	// A burst of same-instant transitions must leave no trace.
	s.Transition(us(20), CatPreemptWait)
	s.Transition(us(20), CatKernel)
	s.Transition(us(20), CatService)
	// Returning to the running category coalesces with the prior segment.
	s.Transition(us(30), CatService)
	s.Finish(us(40))

	if err := s.ConservationError(); err != 0 {
		t.Fatalf("conservation error = %v", err)
	}
	if n := s.SegmentCount(); n != 2 {
		t.Fatalf("segment count = %d, want 2 (queue-wait + one coalesced service)", n)
	}
	svc := s.Phases[1].Segments
	if len(svc) != 1 || svc[0].Cat != CatService || svc[0].Dur() != us(30) {
		t.Fatalf("service phase = %+v, want one 30µs service segment", svc)
	}
}

func TestSpanFinishedIsSealed(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(us(5))
	s.Finish(us(15))
	before := s.Totals()
	s.Transition(us(25), CatService)
	s.BeginPhase(us(25), "late", CatService)
	s.Finish(us(30))
	if s.End != us(15) || s.Totals() != before || len(s.Phases) != 1 {
		t.Fatal("mutation after Finish changed the span")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start(us(1)) // nil tracer mints nil span
	if s != nil || tr.Open() != 0 || tr.Finished() != nil {
		t.Fatal("nil tracer must be inert")
	}
	s.Transition(us(2), CatService) // nil span: all hooks are no-ops
	s.BeginPhase(us(2), "x", CatService)
	s.Finish(us(3))
}

func TestTracerAccounting(t *testing.T) {
	tr := NewTracer()
	a := tr.Start(us(1))
	b := tr.Start(us(2))
	if a.ID == b.ID {
		t.Fatal("span IDs must be unique")
	}
	if tr.Open() != 2 {
		t.Fatalf("open = %d, want 2", tr.Open())
	}
	b.Finish(us(9))
	if tr.Open() != 1 || len(tr.Finished()) != 1 || tr.Finished()[0] != b {
		t.Fatal("finish accounting wrong")
	}
}

// TestSpanLifecycleZeroAllocs: spans are carved from the tracer's
// chunked slab and keep their usual two phases and first few segments
// inline, and a collector reuses its finished buffer, so tracing a
// typical request allocates nothing amortized over the chunks.
func TestSpanLifecycleZeroAllocs(t *testing.T) {
	tr := NewTracer()
	col := NewTracer()
	now := us(0)
	life := func() {
		now += us(10)
		s := tr.Start(now)
		col.Adopt(s)
		s.BeginPhase(now+us(1), "service", CatKernel)
		s.Transition(now+us(2), CatService)
		s.Transition(now+us(3), CatPreemptWait)
		s.Finish(now + us(4))
		tr.AbsorbFinished(col.TakeFinished())
	}
	life()
	// tr's own finished list grows with the run; size it up front so
	// only the span path is measured.
	tr.finished = make([]*Span, 0, 4096)
	if allocs := testing.AllocsPerRun(1000, life); allocs != 0 {
		t.Fatalf("span lifecycle allocates %v allocs/op, want 0", allocs)
	}
	if len(tr.Finished()) != 1001 || tr.Open() != 0 { // AllocsPerRun adds a warm-up run
		t.Fatalf("finished %d, open %d", len(tr.Finished()), tr.Open())
	}
	for _, s := range tr.Finished() {
		if s.ConservationError() != 0 || s.SegmentCount() != 4 {
			t.Fatalf("span %d: %d segments, conservation error %v", s.ID, s.SegmentCount(), s.ConservationError())
		}
	}
}

// TestSpanSegmentsOutgrowInline: segments past the inline buffer spill
// to the heap in either phase without disturbing the other phase.
func TestSpanSegmentsOutgrowInline(t *testing.T) {
	for _, queueSegs := range []int{0, 1, inlineSegments, inlineSegments + 3} {
		tr := NewTracer()
		s := tr.Start(0)
		at := sim.Time(0)
		cats := []Category{CatVMMigr, CatQueueWait}
		for i := 0; i < queueSegs; i++ {
			at += us(1)
			s.Transition(at, cats[i%2])
		}
		s.BeginPhase(at+us(1), "service", CatKernel)
		at += us(1)
		for i := 0; i < 2*inlineSegments; i++ {
			at += us(1)
			s.Transition(at, []Category{CatService, CatRunqWait}[i%2])
		}
		s.Finish(at + us(1))
		if s.ConservationError() != 0 {
			t.Fatalf("%d queue segments: conservation error %v", queueSegs, s.ConservationError())
		}
		if got := len(s.Phases[0].Segments); got != queueSegs+1 {
			t.Fatalf("%d queue transitions left %d queue segments", queueSegs, got)
		}
		if got := len(s.Phases[1].Segments); got != 2*inlineSegments+1 {
			t.Fatalf("service phase has %d segments, want %d", got, 2*inlineSegments+1)
		}
		if s.Phases[0].Segments[0].Start != 0 || s.Phases[1].Segments[0].Cat != CatKernel {
			t.Fatalf("phase heads clobbered: %+v / %+v", s.Phases[0].Segments[0], s.Phases[1].Segments[0])
		}
	}
}
