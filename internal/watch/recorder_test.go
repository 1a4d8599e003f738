package watch

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
)

func finishedSpan(tr *span.Tracer, start, end sim.Time) *span.Span {
	s := tr.Start(start)
	s.Transition(start, span.CatService)
	s.Finish(end)
	return s
}

func TestRecorderSpanRingBounded(t *testing.T) {
	rec := NewRecorder(4, 0)
	tr := span.NewTracer()
	tr.OnFinish = rec.ObserveSpan
	for i := 1; i <= 10; i++ {
		finishedSpan(tr, sim.Time(i), sim.Time(i)+sim.Time(i)*sim.Microsecond)
	}
	if rec.SpanCount() != 10 {
		t.Fatalf("span count = %d, want 10", rec.SpanCount())
	}
	inc := rec.Capture(sim.Second, "invariant", "test", nil, 0)
	if inc == nil {
		t.Fatal("capture failed")
	}
	if len(inc.Spans) != 4 {
		t.Fatalf("bundle spans = %d, want ring cap 4", len(inc.Spans))
	}
	// Ring keeps the most recent spans: IDs 7..10.
	for _, s := range inc.Spans {
		if s.ID < 7 {
			t.Fatalf("evicted span %d still in bundle", s.ID)
		}
	}
}

func TestRecorderIncidentCap(t *testing.T) {
	rec := NewRecorder(0, 2)
	if rec.Capture(1, "invariant", "a", nil, 0) == nil {
		t.Fatal("first capture refused")
	}
	if rec.Capture(2, "invariant", "b", nil, 0) == nil {
		t.Fatal("second capture refused")
	}
	if rec.Capture(3, "invariant", "c", nil, 0) != nil {
		t.Fatal("cap not enforced")
	}
	if len(rec.Incidents()) != 2 {
		t.Fatalf("incidents = %d", len(rec.Incidents()))
	}
}

func TestIncidentBundleJSONAndTrace(t *testing.T) {
	rec := NewRecorder(8, 0)
	tr := span.NewTracer()
	tr.OnFinish = rec.ObserveSpan
	finishedSpan(tr, sim.Millisecond, 5*sim.Millisecond)

	log := trace.NewLog(16)
	log.Record(2*sim.Millisecond, trace.KindNote, "p0", "hello")
	rec.AddHostLog("host0", log)

	st := NewStore(sim.Millisecond, 8)
	st.SketchSeries("lat")
	st.Observe("lat", obs.Labels{VM: "a"}, sim.Millisecond, float64(3*sim.Millisecond))
	st.Observe(SeriesPain, labelsFor("h0", "a"), sim.Millisecond, 7)

	inc := rec.Capture(8*sim.Millisecond, "slo-alert", "details here", st, 0)
	if inc == nil {
		t.Fatal("capture failed")
	}

	var buf bytes.Buffer
	if err := inc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"slo-alert", "details here", "host0", "hello", "watch.pain", `"p50_ns"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("bundle JSON missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := inc.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

func TestWatcherRecordInvariant(t *testing.T) {
	eng := sim.NewEngine()
	w := New(Config{Interval: 100 * sim.Millisecond})
	w.Start(eng)
	var seen []*Incident
	w.OnIncident = func(inc *Incident) { seen = append(seen, inc) }
	eng.At(sim.Second, "trip", func() {
		w.RecordInvariant(eng.Now(), "sa-accounting", "mismatch")
	})
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("incidents = %d, want 1", len(seen))
	}
	if seen[0].Reason != "invariant" || !strings.Contains(seen[0].Detail, "sa-accounting") {
		t.Fatalf("incident = %+v", seen[0])
	}
}

// TestRecorderHostEventsAreTail: a bundle formats only each host's
// newest hostEventCount events, and they are exactly the tail of the
// host log's full Events() rendering — wrapped ring, short log and
// empty log alike.
func TestRecorderHostEventsAreTail(t *testing.T) {
	rec := NewRecorder(0, 0)
	logs := []*trace.Log{trace.NewLog(300), trace.NewLog(300), trace.NewLog(300)}
	for i := 0; i < 1000; i++ { // wraps the first ring three times
		logs[0].Recordf(sim.Time(i)*sim.Microsecond, trace.KindMigrate, "t", "cpu%d -> cpu%d", trace.Int(i), trace.Int(i+1))
	}
	for i := 0; i < 10; i++ {
		logs[1].Recordf(sim.Time(i), trace.KindSA, "v", "acked after %s (%s)", trace.Dur(sim.Time(i)*sim.Millisecond), trace.Str("blocked"))
	}
	for i, l := range logs {
		rec.AddHostLog("host"+string(rune('0'+i)), l)
	}
	inc := rec.Capture(sim.Second, "invariant", "test", nil, 0)
	for i, l := range logs {
		all := l.Events()
		want := all[max(0, len(all)-hostEventCount):]
		got := inc.Hosts[i].Events
		if len(got) != len(want) {
			t.Fatalf("host %d: %d events in bundle, want %d", i, len(got), len(want))
		}
		for j, e := range want {
			if got[j] != e.String() {
				t.Fatalf("host %d event %d = %q, want %q", i, j, got[j], e.String())
			}
		}
		if inc.Hosts[i].Dropped != l.Dropped() {
			t.Fatalf("host %d dropped %d, want %d", i, inc.Hosts[i].Dropped, l.Dropped())
		}
	}
}
