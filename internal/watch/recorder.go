package watch

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
)

// WindowDump is one window rendered for an incident bundle, with
// sketch quantiles materialized (a sketch itself is not meaningfully
// JSON-serializable for a human reader).
type WindowDump struct {
	StartNS int64   `json:"start_ns"`
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50NS   int64   `json:"p50_ns,omitempty"`
	P99NS   int64   `json:"p99_ns,omitempty"`
}

// SeriesDump is one store series' recent windows.
type SeriesDump struct {
	Name    string       `json:"name"`
	Labels  string       `json:"labels,omitempty"`
	Windows []WindowDump `json:"windows"`
}

// HostEvents is one host's recent scheduling events, pre-rendered.
type HostEvents struct {
	Host    string   `json:"host"`
	Dropped uint64   `json:"dropped"`
	Events  []string `json:"events"`
}

// SpanSummary is one recent span's headline numbers.
type SpanSummary struct {
	ID      int64  `json:"id"`
	StartNS int64  `json:"start_ns"`
	WallNS  int64  `json:"wall_ns"`
	Blame   string `json:"blame"` // dominant non-service category
}

// Incident is one self-contained flight-recorder snapshot: why it
// fired, who the attribution engine blames, and the raw windows,
// events, and spans an operator needs to replay the story in a JSON
// viewer or (via WriteTrace) Perfetto.
type Incident struct {
	ID     int    `json:"id"`
	AtNS   int64  `json:"at_ns"`
	Reason string `json:"reason"` // "slo-alert" | "invariant"
	Detail string `json:"detail"`

	Alert    *Alert            `json:"alert,omitempty"`
	Rankings []RankedAggressor `json:"rankings,omitempty"`
	Triples  []AggressorScore  `json:"triples,omitempty"`

	Series []SeriesDump  `json:"series,omitempty"`
	Hosts  []HostEvents  `json:"hosts,omitempty"`
	Spans  []SpanSummary `json:"spans,omitempty"`

	// spans kept aside for the Chrome-trace dump.
	traceSpans []*span.Span
}

// At returns the incident's virtual time.
func (inc *Incident) At() sim.Time { return sim.Time(inc.AtNS) }

// WriteJSON renders the incident bundle as indented JSON.
func (inc *Incident) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(inc)
}

// WriteTrace renders the incident's recent spans as Chrome trace JSON
// (loadable in ui.perfetto.dev), slowest requests first.
func (inc *Incident) WriteTrace(w io.Writer) error {
	return span.WriteChromeSpans(w, []span.TrackSet{
		{Name: "incident spans (slowest recent)", Spans: inc.traceSpans},
	})
}

// Recorder is the flight recorder: bounded rings of recent spans and
// per-host sim events, plus the incident store. Rings allocate on
// first use; a run that records nothing keeps only empty slices.
type Recorder struct {
	spans trace.Ring[*span.Span]
	hosts []recorderHost

	maxIncidents int
	incidents    []*Incident
}

type recorderHost struct {
	name string
	log  *trace.Log
}

// Ring/bundle sizing defaults.
const (
	// DefaultSpanRing bounds how many recent spans the recorder keeps.
	DefaultSpanRing = 512
	// DefaultMaxIncidents caps stored incidents (a tripped invariant
	// re-fires every audit; the first few bundles tell the story).
	DefaultMaxIncidents = 8
	// traceSpanCount is how many slowest recent spans a bundle carries.
	traceSpanCount = 32
	// hostEventCount is how many trailing events per host a bundle
	// carries.
	hostEventCount = 64
)

// NewRecorder builds a recorder keeping spanCap recent spans and at
// most maxIncidents incidents (non-positive values take the defaults).
func NewRecorder(spanCap, maxIncidents int) *Recorder {
	if spanCap <= 0 {
		spanCap = DefaultSpanRing
	}
	if maxIncidents <= 0 {
		maxIncidents = DefaultMaxIncidents
	}
	return &Recorder{spans: trace.NewRing[*span.Span](spanCap), maxIncidents: maxIncidents}
}

// ObserveSpan folds one finished span into the ring; wire it to
// span.Tracer.OnFinish.
func (rec *Recorder) ObserveSpan(s *span.Span) {
	if s == nil {
		return
	}
	rec.spans.Push(s)
}

// SpanCount returns how many spans the recorder has seen in total.
func (rec *Recorder) SpanCount() int64 {
	return int64(rec.spans.Len()) + int64(rec.spans.Dropped())
}

// AddHostLog registers one host's bounded event log for inclusion in
// incident bundles.
func (rec *Recorder) AddHostLog(name string, log *trace.Log) {
	if log == nil {
		return
	}
	rec.hosts = append(rec.hosts, recorderHost{name: name, log: log})
}

// Incidents returns the recorded incidents in order.
func (rec *Recorder) Incidents() []*Incident { return rec.incidents }

// dominantBlame names the non-service category a span spent the most
// time in ("clean" when service dominates everything else).
func dominantBlame(s *span.Span) string {
	t := s.Totals()
	best, bestV := span.CatService, sim.Time(0)
	for c := 0; c < span.NumCategories; c++ {
		if span.Category(c) == span.CatService {
			continue
		}
		if t[c] > bestV {
			best, bestV = span.Category(c), t[c]
		}
	}
	if bestV == 0 {
		return "clean"
	}
	return best.String()
}

// Capture assembles an incident bundle at virtual time at: the store's
// windows over [from, at), each host's trailing events, and the slowest
// recent spans. It returns nil when the incident cap is reached (the
// caller should treat that as "already told this story").
func (rec *Recorder) Capture(at sim.Time, reason, detail string, st *Store, from sim.Time) *Incident {
	if len(rec.incidents) >= rec.maxIncidents {
		return nil
	}
	inc := &Incident{
		ID:     len(rec.incidents) + 1,
		AtNS:   int64(at),
		Reason: reason,
		Detail: detail,
	}

	if st != nil {
		st.Visit(func(name string, l obs.Labels, s *Series) {
			ws := s.WindowsBetween(from, at)
			if len(ws) == 0 {
				return
			}
			sd := SeriesDump{Name: name, Labels: l.String()}
			for _, w := range ws {
				wd := WindowDump{
					StartNS: int64(w.Start), Count: w.Count,
					Sum: w.Sum, Min: w.Min, Max: w.Max,
				}
				if w.Sketch != nil {
					wd.P50NS = int64(w.Sketch.Percentile(50))
					wd.P99NS = int64(w.Sketch.Percentile(99))
				}
				sd.Windows = append(sd.Windows, wd)
			}
			inc.Series = append(inc.Series, sd)
		})
	}

	var events []trace.Event
	for _, h := range rec.hosts {
		events = h.log.AppendTail(events[:0], hostEventCount)
		he := HostEvents{Host: h.name, Dropped: h.log.Dropped()}
		for _, e := range events {
			he.Events = append(he.Events, e.String())
		}
		inc.Hosts = append(inc.Hosts, he)
	}

	// Slowest recent spans, then back into start order for rendering.
	recent := rec.spans.AppendTo(nil)
	sort.Slice(recent, func(i, j int) bool {
		if recent[i].Wall() != recent[j].Wall() {
			return recent[i].Wall() > recent[j].Wall()
		}
		return recent[i].ID < recent[j].ID
	})
	if len(recent) > traceSpanCount {
		recent = recent[:traceSpanCount]
	}
	sort.Slice(recent, func(i, j int) bool {
		if recent[i].Start != recent[j].Start {
			return recent[i].Start < recent[j].Start
		}
		return recent[i].ID < recent[j].ID
	})
	inc.traceSpans = recent
	for _, s := range recent {
		inc.Spans = append(inc.Spans, SpanSummary{
			ID: s.ID, StartNS: int64(s.Start), WallNS: int64(s.Wall()),
			Blame: dominantBlame(s),
		})
	}

	rec.incidents = append(rec.incidents, inc)
	return inc
}
