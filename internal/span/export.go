package span

import (
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Perfetto-compatible nested span export, written through
// trace.ChromeTrace (B/E duration slices + metadata events on the
// shared microsecond timebase; loads directly in chrome://tracing and
// ui.perfetto.dev). Each request becomes one thread track; the span
// tree nests on it: an outer request slice, phase slices inside it,
// and categorized leaf segments inside those. Multiple TrackSets (e.g.
// one per scheduling strategy) render as separate processes in one
// file, so baseline and IRS timelines sit side by side.

func dur(t sim.Time) string { return time.Duration(t).String() }

// TrackSet is one named group of spans exported as its own Perfetto
// process.
type TrackSet struct {
	Name  string
	Spans []*Span
}

// WriteChromeSpans renders the track sets as Chrome trace JSON.
// Unfinished spans are skipped (they have no right edge to draw).
func WriteChromeSpans(w io.Writer, sets []TrackSet) error {
	var out trace.ChromeTrace
	for si, set := range sets {
		pid := si + 1
		out.Process(pid, set.Name)
		t := trace.Track{Pid: pid}
		for _, s := range set.Spans {
			if s == nil || !s.Finished() {
				continue
			}
			t.Tid++
			req := fmt.Sprintf("req %d", s.ID)
			out.Thread(t, fmt.Sprintf("%s (wall %s)", req, dur(s.Wall())))
			out.Begin(t, s.Start, req, "request", map[string]string{"wall": dur(s.Wall())})
			for _, p := range s.Phases {
				out.Begin(t, p.Start, p.Name, "phase", nil)
				for _, seg := range p.Segments {
					out.Begin(t, seg.Start, seg.Cat.String(), "segment", map[string]string{"dur": dur(seg.Dur())})
					out.End(t, seg.End, seg.Cat.String(), "segment")
				}
				out.End(t, p.End, p.Name, "phase")
			}
			out.End(t, s.End, req, "request")
		}
	}
	return out.Write(w)
}
