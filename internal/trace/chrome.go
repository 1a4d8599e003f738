package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Chrome Trace Event Format export
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// the one writer behind every timeline the simulator emits: the trace
// log (WriteChromeTrace below), request spans (span.WriteChromeSpans)
// and decisions (decision.WriteChromeTrace). All of them stamp events
// in virtual microseconds from t = 0, so their files overlay in one
// Perfetto session. The output loads directly in chrome://tracing and
// ui.perfetto.dev.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// Track addresses one timeline row: thread Tid inside process Pid.
type Track struct{ Pid, Tid int }

// ChromeTrace accumulates events in emission order; Write renders
// them. The zero value is an empty trace.
type ChromeTrace struct {
	events []chromeEvent
}

// usec converts virtual time to the format's microsecond timestamps.
func usec(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// Process names process pid.
func (c *ChromeTrace) Process(pid int, name string) {
	c.events = append(c.events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": name},
	})
}

// Thread names track t.
func (c *ChromeTrace) Thread(t Track, name string) {
	c.events = append(c.events, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: t.Pid, Tid: t.Tid, Args: map[string]string{"name": name},
	})
}

// Begin opens a duration slice on t at virtual time at.
func (c *ChromeTrace) Begin(t Track, at sim.Time, name, cat string, args map[string]string) {
	c.events = append(c.events, chromeEvent{
		Name: name, Ph: "B", Ts: usec(at), Pid: t.Pid, Tid: t.Tid, Cat: cat, Args: args,
	})
}

// End closes the innermost slice named name on t.
func (c *ChromeTrace) End(t Track, at sim.Time, name, cat string) {
	c.events = append(c.events, chromeEvent{
		Name: name, Ph: "E", Ts: usec(at), Pid: t.Pid, Tid: t.Tid, Cat: cat,
	})
}

// Instant marks a thread-scoped instant on t.
func (c *ChromeTrace) Instant(t Track, at sim.Time, name, cat string, args map[string]string) {
	c.events = append(c.events, chromeEvent{
		Name: name, Ph: "i", Ts: usec(at), Pid: t.Pid, Tid: t.Tid, Cat: cat, S: "t", Args: args,
	})
}

// Write renders the trace as one JSON document.
func (c *ChromeTrace) Write(w io.Writer) error {
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{c.events, "ms"}
	if out.TraceEvents == nil {
		out.TraceEvents = []chromeEvent{}
	}
	return json.NewEncoder(w).Encode(out)
}

// WriteChromeTrace lowers the events inside [from, to] (to == 0 means
// no upper bound) to Chrome trace JSON. Every subject gets a track
// under one "irs-sim" process, ordered by name; vCPU runstate
// transitions become B/E slices, everything else an instant.
func (l *Log) WriteChromeTrace(w io.Writer, from, to sim.Time) error {
	var events []Event
	l.each(func(r *record) {
		if r.at >= from && (to <= 0 || r.at <= to) {
			events = append(events, r.event())
		}
	})

	// Stable thread ids: one track per subject, ordered by name.
	tracks := map[string]Track{}
	for _, e := range events {
		tracks[e.Subject] = Track{}
	}
	names := make([]string, 0, len(tracks))
	for s := range tracks {
		names = append(names, s)
	}
	sort.Strings(names)

	const pid = 1
	var out ChromeTrace
	out.Process(pid, "irs-sim")
	for i, s := range names {
		tracks[s] = Track{Pid: pid, Tid: i + 1}
		out.Thread(tracks[s], s)
	}

	// open tracks which vCPU subjects currently have a B slice pending.
	open := map[string]string{}
	end := to
	for _, e := range events {
		end = max(end, e.At)
		t := tracks[e.Subject]
		prev, next, ok := strings.Cut(e.Detail, " -> ")
		if e.Kind != KindVCPUState || !ok {
			out.Instant(t, e.At, e.Kind.String(), e.Kind.String(),
				map[string]string{"subject": e.Subject, "detail": e.Detail})
			continue
		}
		if name, pending := open[e.Subject]; pending && name == prev {
			out.End(t, e.At, prev, "vcpu")
			delete(open, e.Subject)
		}
		// Only non-idle states get slices; "blocked" gaps read as idle
		// track space, which is what a scheduler timeline wants.
		if next == "running" || next == "runnable" {
			out.Begin(t, e.At, next, "vcpu", nil)
			open[e.Subject] = next
		}
	}
	// Close any slice still open so B/E pairs balance at the window edge.
	for _, s := range names {
		if name, pending := open[s]; pending {
			out.End(tracks[s], end, name, "vcpu")
		}
	}
	return out.Write(w)
}
