package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecordAndEvents(t *testing.T) {
	l := NewLog(0)
	l.Record(10, KindSA, "fg/v0", "sent")
	l.Recordf(20, KindMigrate, "task-1", "cpu%d -> cpu%d", Int(0), Int(1))
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	evs := l.Events()
	if evs[0].At != 10 || evs[0].Kind != KindSA {
		t.Fatalf("bad first event: %+v", evs[0])
	}
	if evs[1].Detail != "cpu0 -> cpu1" {
		t.Fatalf("bad formatted detail: %q", evs[1].Detail)
	}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 10; i++ {
		l.Record(sim.Time(i), KindNote, "s", "")
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", l.Dropped())
	}
	if l.Events()[0].At != 7 {
		t.Fatalf("oldest retained = %v, want 7", l.Events()[0].At)
	}
}

func TestFilter(t *testing.T) {
	l := NewLog(0)
	l.Record(1, KindSA, "a", "sent")
	l.Record(2, KindSA, "b", "sent")
	l.Record(3, KindTask, "a", "blocked")
	if got := len(l.Filter(KindSA, "")); got != 2 {
		t.Fatalf("Filter(SA) = %d", got)
	}
	if got := len(l.Filter(KindSA, "a")); got != 1 {
		t.Fatalf("Filter(SA, a) = %d", got)
	}
	if got := len(l.Filter(KindMigrate, "")); got != 0 {
		t.Fatalf("Filter(Migrate) = %d", got)
	}
}

func TestDumpWindow(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 10; i++ {
		l.Record(sim.Time(i)*sim.Millisecond, KindNote, "s", "x")
	}
	var b strings.Builder
	if err := l.Dump(&b, 3*sim.Millisecond, 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(b.String(), "\n")
	if lines != 3 {
		t.Fatalf("dumped %d lines, want 3 (t=3,4,5ms)", lines)
	}
}

func TestSummary(t *testing.T) {
	l := NewLog(0)
	l.Record(1, KindSA, "a", "")
	l.Record(2, KindSA, "a", "")
	l.Record(3, KindSwitch, "p0", "")
	s := l.Summary()
	if !strings.Contains(s, "sa=2") || !strings.Contains(s, "switch=1") {
		t.Fatalf("summary = %q", s)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	l := NewLog(2)
	l.Record(1, KindNote, "a", "")
	l.Record(2, KindNote, "b", "")
	evs := l.Events()
	// Recording past the limit evicts underneath; the earlier slice must
	// be insulated from that.
	l.Record(3, KindNote, "c", "")
	if evs[0].At != 1 || evs[1].At != 2 {
		t.Fatalf("snapshot mutated by later Record: %+v", evs)
	}
	evs[0].Subject = "mutated"
	if l.Events()[0].Subject == "mutated" {
		t.Fatal("caller writes must not reach the log's ring")
	}
}

func TestDroppedAccumulatesAcrossEvictions(t *testing.T) {
	l := NewLog(2)
	for i := 0; i < 5; i++ {
		l.Record(sim.Time(i), KindNote, "s", "")
	}
	if l.Dropped() != 3 {
		t.Fatalf("dropped = %d after first overflow burst, want 3", l.Dropped())
	}
	for i := 5; i < 9; i++ {
		l.Record(sim.Time(i), KindNote, "s", "")
	}
	// Eviction count must accumulate across separate bursts, not reset.
	if l.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", l.Dropped())
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if got := l.Events()[0].At; got != 7 {
		t.Fatalf("oldest retained = %v, want 7", got)
	}
}

func TestDumpWindowUnbounded(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 4; i++ {
		l.Record(sim.Time(i)*sim.Millisecond, KindNote, "s", "x")
	}
	// to == 0 means no upper bound: everything from 2 ms on.
	var b strings.Builder
	if err := l.Dump(&b, 2*sim.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != 2 {
		t.Fatalf("dumped %d lines, want 2 (t=2,3ms)", lines)
	}
}

func TestDumpReportsDropped(t *testing.T) {
	l := NewLog(1)
	l.Record(1, KindNote, "s", "")
	l.Record(2, KindNote, "s", "")
	var b strings.Builder
	if err := l.Dump(&b, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "1 earlier events dropped") {
		t.Fatalf("dump = %q", b.String())
	}
}

func TestSummaryOrdering(t *testing.T) {
	l := NewLog(0)
	// Record in reverse declaration order; Summary must render in fixed
	// kind order (vcpu, switch, sa, ...) regardless.
	l.Record(1, KindMigrate, "t", "")
	l.Record(2, KindSA, "v", "")
	l.Record(3, KindSA, "v", "")
	l.Record(4, KindVCPUState, "v", "")
	if got := l.Summary(); got != "vcpu=1 sa=2 migrate=1" {
		t.Fatalf("summary = %q", got)
	}
	empty := NewLog(0)
	if got := empty.Summary(); got != "" {
		t.Fatalf("empty summary = %q", got)
	}
}

func TestParseKinds(t *testing.T) {
	if m, err := ParseKinds(""); m != nil || err != nil {
		t.Fatalf("empty filter = %v, %v", m, err)
	}
	m, err := ParseKinds(" sa, migrate ")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || !m[KindSA] || !m[KindMigrate] {
		t.Fatalf("parsed = %v", m)
	}
	if _, err := ParseKinds("sa,bogus"); err == nil ||
		!strings.Contains(err.Error(), `"bogus"`) ||
		!strings.Contains(err.Error(), "vcpu") {
		t.Fatalf("unknown kind error = %v", err)
	}
	// Every advertised name must parse, and KindNames must cover every
	// declared kind.
	names := KindNames()
	if len(names) != int(KindNote) {
		t.Fatalf("KindNames lists %d kinds, want %d", len(names), int(KindNote))
	}
	for _, n := range names {
		if _, err := ParseKinds(n); err != nil {
			t.Errorf("valid kind %q rejected: %v", n, err)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 5 * sim.Millisecond, Kind: KindSA, Subject: "fg/v0", Detail: "sent"}
	s := e.String()
	if !strings.Contains(s, "5.000ms") || !strings.Contains(s, "sa") || !strings.Contains(s, "fg/v0") {
		t.Fatalf("event string = %q", s)
	}
}

// TestRecordfMatchesSprintf pins the deferred formatting: a detail
// rendered from typed operands must equal fmt.Sprintf over the original
// values, including after the ring has wrapped several times.
func TestRecordfMatchesSprintf(t *testing.T) {
	l := NewLog(5)
	var want []string
	for i := 0; i < 23; i++ {
		d := sim.Time(i*i) * 997 * sim.Nanosecond
		switch i % 3 {
		case 0:
			l.Recordf(sim.Time(i), KindSA, "v", "acked after %s (%s)", Dur(d), Str("blocked"))
			want = append(want, fmt.Sprintf("acked after %s (%s)", d, "blocked"))
		case 1:
			l.Recordf(sim.Time(i), KindMigrate, "t", "cpu%d -> cpu%d", Int(i-2), Int(i))
			want = append(want, fmt.Sprintf("cpu%d -> cpu%d", i-2, i))
		default:
			l.Record(sim.Time(i), KindNote, "n", "100% literal")
			want = append(want, "100% literal")
		}
	}
	want = want[len(want)-5:]
	evs := l.Events()
	if len(evs) != len(want) || l.Dropped() != 18 {
		t.Fatalf("retained %d events, dropped %d; want %d and 18", len(evs), l.Dropped(), len(want))
	}
	for i, e := range evs {
		if e.At != sim.Time(18+i) || e.Detail != want[i] {
			t.Fatalf("event %d = (%v, %q), want (%v, %q)", i, e.At, e.Detail, sim.Time(18+i), want[i])
		}
	}
	if got := l.Filter(KindMigrate, "t"); len(got) != 2 || got[0].Detail != "cpu17 -> cpu19" {
		t.Fatalf("filter over wrapped ring = %+v", got)
	}
}

// TestRecordfAllocationFree pins the hot-path contract: once the ring
// is full, recording a formatted event allocates nothing.
func TestRecordfAllocationFree(t *testing.T) {
	l := NewLog(64)
	for i := 0; i < 64; i++ {
		l.Recordf(0, KindSwitch, "p0", "run %s (%s)", Str("vm/v0"), Str("UNDER"))
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.Recordf(1, KindSA, "vm/v0", "acked after %s (%s)", Dur(20*sim.Microsecond), Str("blocked"))
	})
	if allocs != 0 {
		t.Fatalf("Recordf allocates %.1f times per event, want 0", allocs)
	}
}

// TestAppendFormatMatchesSprintf pins the boxing-free formatter to
// fmt.Sprintf over the same values, for every operand kind the
// recording sites use and times in every unit range.
func TestAppendFormatMatchesSprintf(t *testing.T) {
	times := []sim.Time{0, 999, sim.Microsecond, 1234567, 999999999, sim.Second, 6*sim.Second + 400*sim.Microsecond, -5}
	for _, d := range times {
		got := string(AppendFormat(nil, "req@%v to %s", []Arg{Dur(d), Str("srv0#2")}))
		if want := fmt.Sprintf("req@%v to %s", d, "srv0#2"); got != want {
			t.Fatalf("time %d: %q, want %q", int64(d), got, want)
		}
	}
	floats := []float64{0, 0.1234, -2.5, 1e9, math.Inf(1), math.Inf(-1), math.NaN(), 0.0005}
	for _, f := range floats {
		got := string(AppendFormat(nil, "busy=%.3f intf=%f", []Arg{Float(f, 1), Float(f, 3)}))
		if want := fmt.Sprintf("busy=%.3f intf=%.3f", f, f); got != want {
			t.Fatalf("float %v: %q, want %q", f, got, want)
		}
		if got, want := Float(f, 2).String(), strconv.FormatFloat(f, 'f', 2, 64); got != want {
			t.Fatalf("float operand %v: %q, want %q", f, got, want)
		}
	}
	for _, n := range []int64{0, -1, 255, 256, math.MaxInt64, math.MinInt64} {
		got := string(AppendFormat(nil, "out=%d 100%% (%d)", []Arg{Int(int(n)), Int(7)}))
		if want := fmt.Sprintf("out=%d 100%% (%d)", n, 7); got != want {
			t.Fatalf("int %d: %q, want %q", n, got, want)
		}
	}
	if got := string(AppendFormat(nil, "100% literal", nil)); got != "100% literal" {
		t.Fatalf("literal = %q", got)
	}
	if got := string(AppendFormat(nil, "%s and %s", []Arg{Str("a")})); got != "a and %!s(MISSING)" {
		t.Fatalf("missing operand = %q", got)
	}
}

// TestAppendTailFormatsOnlyTail: a tail read formats just the newest n
// events, each costing only its detail string — no operand is boxed.
func TestAppendTailFormatsOnlyTail(t *testing.T) {
	l := NewLog(100)
	for i := 0; i < 250; i++ {
		l.Recordf(sim.Time(i)*sim.Millisecond, KindMigrate, "t", "cpu%d -> cpu%d", Int(1000+i), Int(2000+i))
	}
	all := l.Events()
	tail := l.AppendTail(nil, 64)
	if len(tail) != 64 {
		t.Fatalf("tail of %d events", len(tail))
	}
	for i, e := range tail {
		if e != all[len(all)-64+i] {
			t.Fatalf("tail[%d] = %+v, want %+v", i, e, all[len(all)-64+i])
		}
	}
	if got := l.AppendTail(nil, 1000); len(got) != len(all) {
		t.Fatalf("oversized tail returned %d of %d events", len(got), len(all))
	}
	buf := make([]Event, 0, 64)
	allocs := testing.AllocsPerRun(20, func() { buf = l.AppendTail(buf[:0], 64) })
	if allocs != 64 {
		t.Fatalf("tail of 64 events allocates %v times, want 64 (one detail each)", allocs)
	}
}
