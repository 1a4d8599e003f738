package decision

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func rec(at sim.Time, k Kind, subject string) Record {
	return Record{At: at, Kind: k, Subject: subject}
}

func TestNilRingAndLogAreNoOps(t *testing.T) {
	var r *Ring
	if r.Wants(KindPlace) {
		t.Fatal("nil ring wants records")
	}
	r.Add(rec(0, KindPlace, "x")) // must not panic

	var l *Log
	l.Merge()
	l.Label(0, "ctl")
	if l.Ring(0) != nil {
		t.Fatal("nil log returned a ring")
	}
	if l.Records() != nil || l.Dropped() != 0 {
		t.Fatal("nil log has state")
	}
}

func TestRingStampsShardChooserSeq(t *testing.T) {
	l := NewLog(3, Options{PerShard: 8})
	l.Label(0, "ctl")
	l.Label(2, "host1")
	l.Ring(0).Add(rec(10, KindPlace, "a"))
	l.Ring(0).Add(rec(20, KindRoute, "b"))
	l.Ring(2).Add(rec(15, KindBoost, "c"))
	l.Merge()
	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("merged %d records, want 3", len(recs))
	}
	if recs[0].Chooser != "ctl" || recs[0].Shard != 0 || recs[0].Seq != 0 {
		t.Fatalf("record 0 stamped %q shard=%d seq=%d", recs[0].Chooser, recs[0].Shard, recs[0].Seq)
	}
	if recs[1].Chooser != "host1" || recs[1].Shard != 2 {
		t.Fatalf("record 1 = %+v, want host1 shard 2 (time order)", recs[1])
	}
	if recs[2].Seq != 1 {
		t.Fatalf("second ctl record seq = %d, want 1", recs[2].Seq)
	}
}

// TestMergeCanonicalOrder pins the determinism contract: the merged
// order depends only on (time, shard, per-shard order), never on which
// merge batch a record landed in.
func TestMergeCanonicalOrder(t *testing.T) {
	build := func(splitMerges bool) []Record {
		l := NewLog(3, Options{PerShard: 16})
		// Equal times across shards: shard order must win.
		l.Ring(2).Add(rec(100, KindPlace, "s2a"))
		l.Ring(1).Add(rec(100, KindPlace, "s1a"))
		l.Ring(1).Add(rec(50, KindPlace, "s1b"))
		if splitMerges {
			l.Merge()
		}
		l.Ring(0).Add(rec(100, KindPlace, "s0a"))
		l.Ring(2).Add(rec(70, KindPlace, "s2b"))
		l.Merge()
		out := make([]Record, len(l.Records()))
		copy(out, l.Records())
		return out
	}
	a, b := build(false), build(true)
	names := func(rs []Record) string {
		var parts []string
		for _, r := range rs {
			parts = append(parts, r.Subject)
		}
		return strings.Join(parts, ",")
	}
	// One merge: concat shard order [s0a][s1a s1b][s2a s2b] then stable
	// sort by time → s1b(50) s2b(70) s0a s1a s2a (equal 100, shard order).
	if got := names(a); got != "s1b,s2b,s0a,s1a,s2a" {
		t.Fatalf("single merge order = %s", got)
	}
	// Records already merged keep their place; later records sort into
	// their own batch. The barrier schedule fixes which records share a
	// batch independently of shard execution order, so this order is still
	// deterministic — it just differs from the single-batch one.
	if got := names(b); got != "s1b,s1a,s2a,s2b,s0a" {
		t.Fatalf("split merge order = %s", got)
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	l := NewLog(1, Options{PerShard: 2})
	r := l.Ring(0)
	r.Add(rec(1, KindPlace, "a"))
	r.Add(rec(2, KindPlace, "b"))
	r.Add(rec(3, KindPlace, "c"))
	l.Merge()
	recs := l.Records()
	if len(recs) != 2 || recs[0].Subject != "b" || recs[1].Subject != "c" {
		t.Fatalf("overflow kept %+v", recs)
	}
	if l.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", l.Dropped())
	}
}

// TestNewLogAllocatesRingsOnFirstUse pins lazy ring storage: a
// rack-sized log holds no record slots until a shard records, and then
// only that shard's ring grows.
func TestNewLogAllocatesRingsOnFirstUse(t *testing.T) {
	l := NewLog(17, Options{})
	for i, r := range l.rings {
		if c := r.recs.Cap(); c != 0 {
			t.Fatalf("ring %d holds %d record slots before its first Add", i, c)
		}
	}
	l.Ring(3).Add(rec(1, KindRoute, "a"))
	for i, r := range l.rings {
		if got, used := r.recs.Cap(), i == 3; (got > 0) != used || got > 4096 {
			t.Fatalf("ring %d holds %d record slots after an Add to ring 3", i, got)
		}
	}
}

func TestLogTotalBound(t *testing.T) {
	l := NewLog(1, Options{PerShard: 8, Total: 3})
	r := l.Ring(0)
	for i := 0; i < 5; i++ {
		r.Add(rec(sim.Time(i), KindRoute, "x"))
		l.Merge()
	}
	if len(l.Records()) != 3 {
		t.Fatalf("merged log holds %d, want 3", len(l.Records()))
	}
	if l.Records()[0].At != 2 {
		t.Fatalf("oldest surviving record at %v, want 2ns", l.Records()[0].At)
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", l.Dropped())
	}
}

func TestKindMaskFiltersRecording(t *testing.T) {
	l := NewLog(1, Options{Kinds: []Kind{KindPlace, KindCordon}})
	r := l.Ring(0)
	if !r.Wants(KindPlace) || !r.Wants(KindCordon) {
		t.Fatal("selected kinds not wanted")
	}
	if r.Wants(KindBoost) || r.Wants(KindRoute) {
		t.Fatal("unselected kinds wanted")
	}
}

func TestParseKinds(t *testing.T) {
	all, err := ParseKinds("all")
	if err != nil || len(all) != len(AllKinds()) {
		t.Fatalf("all = %v, %v", all, err)
	}
	ctl, err := ParseKinds("ctl")
	if err != nil || len(ctl) != len(ControlKinds()) {
		t.Fatalf("ctl = %v, %v", ctl, err)
	}
	got, err := ParseKinds("route, place")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != KindPlace || got[1] != KindRoute {
		t.Fatalf("kinds = %v, want enum order [place route]", got)
	}
	if _, err := ParseKinds("bogus"); err == nil {
		t.Fatal("bogus kind parsed")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
}

func TestMarginAndRunnerUp(t *testing.T) {
	r := Record{
		Winner: "host1",
		Candidates: []Candidate{
			{Name: "host0", Score: 0.9},
			{Name: "host1", Score: 0.2},
			{Name: "host2", Score: 0.5},
		},
	}
	ru, ok := r.RunnerUp()
	if !ok || ru.Name != "host2" {
		t.Fatalf("runner-up = %+v, %v", ru, ok)
	}
	m, ok := r.Margin()
	if !ok || m < 0.299 || m > 0.301 {
		t.Fatalf("margin = %v, %v", m, ok)
	}
	// A winner outside the candidate set (boost records) has no margin.
	r.Winner = "elsewhere"
	if _, ok := r.Margin(); ok {
		t.Fatal("margin defined without a scored winner")
	}
}

func TestTrailSelectsElasticityStory(t *testing.T) {
	up := Record{At: 3, Kind: KindAutoscale, Inputs: []KV{{Key: "act", Val: trace.Str("up")}}}
	down := Record{At: 9, Kind: KindAutoscale, Inputs: []KV{{Key: "act", Val: trace.Str("down")}}}
	failover := Record{At: 2, Kind: KindRoute, Inputs: []KV{{Key: "failover", Val: trace.Str("1")}}}
	recs := []Record{
		rec(0, KindPlace, "srv0"),
		rec(1, KindCordon, "z1"),
		rec(1, KindRoute, "srv0"), // plain route: not a failover step
		failover,
		{At: 2, Kind: KindRoute, Inputs: []KV{{Key: "failover", Val: trace.Str("1")}}}, // only the first counts
		up,
		rec(5, KindMigrate, "srv1"), // migrations are queryable, not trail steps
		rec(6, KindUncordon, "z1"),
		down,
	}
	steps := Trail(recs)
	if got := TrailString(steps); got != "cordon,failover,scale-up,drain" {
		t.Fatalf("trail = %q", got)
	}
}

func TestClosestCalls(t *testing.T) {
	mk := func(at sim.Time, winner float64, runner float64) Record {
		return Record{
			At: at, Kind: KindPlace, Winner: "w",
			Candidates: []Candidate{{Name: "w", Score: winner}, {Name: "r", Score: runner}},
		}
	}
	recs := []Record{
		mk(1, 0.1, 0.9), // margin 0.8
		mk(2, 0.1, 0.2), // margin 0.1
		rec(3, KindCordon, "z0"),
		mk(4, 0.3, 0.5), // margin 0.2
	}
	calls := ClosestCalls(recs, 2)
	if len(calls) != 2 || calls[0].At != 2 || calls[1].At != 4 {
		t.Fatalf("closest calls = %+v", calls)
	}
	if got := ClosestCalls(recs, 10); len(got) != 3 {
		t.Fatalf("n beyond scored count returned %d", len(got))
	}
}

func TestCountsString(t *testing.T) {
	recs := []Record{
		rec(1, KindPlace, "a"), rec(2, KindPlace, "b"),
		rec(3, KindCordon, "z"),
	}
	if got := CountsString(recs); got != "place=2 cordon=1" {
		t.Fatalf("counts = %q", got)
	}
	if got := CountsString(nil); got != "none" {
		t.Fatalf("empty counts = %q", got)
	}
}

// TestMergeSteadyStateZeroAllocs: a barrier merge sorts the batch in
// place inside the merged log's storage, which grows by doubling, so a
// steady stream of barriers allocates only on the rare doubling.
func TestMergeSteadyStateZeroAllocs(t *testing.T) {
	l := NewLog(4, Options{PerShard: 64})
	batch := func(base sim.Time) {
		for s := 3; s >= 0; s-- { // later shards stamp earlier times
			l.Ring(s).Add(Record{At: base + sim.Time(3-s), Kind: KindRoute})
			l.Ring(s).Add(Record{At: base + sim.Time(3-s), Kind: KindBoost})
		}
	}
	base := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		base += 10
		batch(base)
		l.Merge()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Merge allocates %v allocs/op, want 0", allocs)
	}
	recs := l.Records()
	if len(recs) != 1001*8 {
		t.Fatalf("merged %d records, want %d", len(recs), 1001*8)
	}
	// Canonical order: time, then shard, then per-shard order.
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if a.At > b.At || a.At == b.At && (a.Shard > b.Shard || a.Shard == b.Shard && a.Seq >= b.Seq) {
			t.Fatalf("records %d,%d out of canonical order: %+v %+v", i-1, i, a, b)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = l.Records() }); n != 0 {
		t.Fatalf("Records allocates %v", n)
	}
}

// TestRingSlabsCarveTypedParts: candidates, inputs and text operands
// come from the ring's slabs with exact capacity, so one record's
// parts never alias another's, and they render when read.
func TestRingSlabsCarveTypedParts(t *testing.T) {
	l := NewLog(1, Options{})
	r := l.Ring(0)
	for i := 0; i < 2*slabChunk; i++ { // crosses chunk boundaries
		cands := r.Candidates(2)
		if cap(cands) != 2 {
			t.Fatalf("carved capacity %d, want 2", cap(cands))
		}
		cands = append(cands,
			Candidate{Name: "a", Score: float64(i), Reason: r.Text("out=%d", trace.Int(i))},
			Candidate{Name: "b", Score: float64(i + 1), Reason: Text{format: "idle"}})
		r.Add(Record{
			At: sim.Time(i), Kind: KindRoute, Winner: "a",
			Detail:     r.Text("req@%v to %s", trace.Dur(sim.Time(i)*sim.Millisecond), trace.Str("a")),
			Candidates: cands,
			Inputs:     r.Inputs(KV{Key: "zone", Val: trace.Str("z0")}, KV{Key: "n", Val: trace.Int(i)}),
		})
	}
	l.Merge()
	for i, rec := range l.Records() {
		if got, want := rec.Detail.String(), "req@"+(sim.Time(i)*sim.Millisecond).String()+" to a"; got != want {
			t.Fatalf("record %d detail %q, want %q", i, got, want)
		}
		if got := rec.Candidates[0].Reason.String(); got != "out="+strconv.Itoa(i) {
			t.Fatalf("record %d reason %q", i, got)
		}
		if n, _ := rec.Input("n"); n != strconv.Itoa(i) {
			t.Fatalf("record %d input n=%q", i, n)
		}
		if m, ok := rec.Margin(); !ok || m != 1 {
			t.Fatalf("record %d margin %v %v", i, m, ok)
		}
	}
	var nilRing *Ring
	if nilRing.Candidates(3) != nil || nilRing.Inputs(KV{Key: "k"}) != nil || nilRing.Text("x %d", trace.Int(1)).String() != "" {
		t.Fatal("nil ring carved storage")
	}
}
