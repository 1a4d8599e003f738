// Package decision is the cluster's "why" audit log: every control-
// plane choice — zone pick, host placement, request route, autoscaler
// step, migration trigger, zone cordon — and the credit scheduler's
// BOOST/preempt calls are recorded as structured Records carrying the
// full candidate set the chooser saw (with per-candidate scores and
// reasons), the winner, and the scalar inputs the decision read.
//
// The log is built for the sharded simulation (DESIGN.md §14): each
// shard appends to its own bounded Ring stamped with a per-ring
// sequence number, and the coordinator merges the rings at every
// barrier under the same canonical (time, shard, order) key the engine
// uses for cross-shard mail — concatenate in shard index order, then a
// stable sort by time. The merged log therefore does not depend on
// the order the shards ran in, which is what makes a scheduler decision
// trail a goldenable artifact rather than a debug dump.
//
// When no log is attached, every hook site reduces to a nil/mask check
// and zero allocations (see the paired benchmarks in
// internal/hypervisor and internal/cluster); nil *Ring and *Log are
// valid no-op instances, following the internal/obs convention.
package decision

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind classifies a scheduler decision.
type Kind int

const (
	// KindZonePick is the outer level of two-level placement: which
	// zone receives an arriving VM.
	KindZonePick Kind = iota + 1
	// KindPlace is host placement inside the chosen zone.
	KindPlace
	// KindRoute is one request dispatch: zone selection plus the
	// intra-zone JSQ replica choice.
	KindRoute
	// KindAutoscale is one autoscaler action (scale-up or drain).
	KindAutoscale
	// KindMigrate is a hot-spot migration trigger: victim and
	// destination choice.
	KindMigrate
	// KindCordon marks a zone cordoned (outage start); KindUncordon
	// the cordon lifting.
	KindCordon
	KindUncordon
	// KindBoost is a credit-scheduler BOOST grant on vCPU wake.
	KindBoost
	// KindPreempt is an involuntary deschedule (timeslice expiry, SA
	// expiry, or a higher-priority wake).
	KindPreempt
)

// kindCount bounds the Kind enum for mask and slice sizing.
const kindCount = int(KindPreempt) + 1

func (k Kind) String() string {
	switch k {
	case KindZonePick:
		return "zone-pick"
	case KindPlace:
		return "place"
	case KindRoute:
		return "route"
	case KindAutoscale:
		return "autoscale"
	case KindMigrate:
		return "migrate"
	case KindCordon:
		return "cordon"
	case KindUncordon:
		return "uncordon"
	case KindBoost:
		return "boost"
	case KindPreempt:
		return "preempt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a kind from its String form.
func ParseKind(s string) (Kind, bool) {
	for _, k := range AllKinds() {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// AllKinds lists every decision kind in enum order.
func AllKinds() []Kind {
	return []Kind{KindZonePick, KindPlace, KindRoute, KindAutoscale,
		KindMigrate, KindCordon, KindUncordon, KindBoost, KindPreempt}
}

// ControlKinds lists the cluster control-plane kinds — everything but
// the per-vCPU boost/preempt stream, whose volume (one record per
// scheduler event on every host) swamps a cluster-length log. This is
// the default recording set for the why experiment and `irs why`.
func ControlKinds() []Kind {
	return []Kind{KindZonePick, KindPlace, KindRoute, KindAutoscale,
		KindMigrate, KindCordon, KindUncordon}
}

// ParseKinds parses a comma-separated kind list; "all" and "ctl" name
// the two standard sets. The result is deduplicated and in enum order.
func ParseKinds(s string) ([]Kind, error) {
	switch strings.TrimSpace(s) {
	case "", "all":
		return AllKinds(), nil
	case "ctl":
		return ControlKinds(), nil
	}
	kinds, _, err := parseKinds(s)
	if err != nil {
		return nil, fmt.Errorf("decision: %v", err)
	}
	return kinds, nil
}

// parseKinds parses a comma-separated kind list into enum order,
// reporting whether it names a kind twice.
func parseKinds(s string) (kinds []Kind, dup bool, err error) {
	list, err := kv.List(s, func(name string) (Kind, error) {
		k, ok := ParseKind(name)
		if !ok {
			return 0, fmt.Errorf("unknown kind %q", name)
		}
		return k, nil
	})
	if err != nil {
		return nil, false, err
	}
	var mask uint32
	for _, k := range list {
		dup = dup || mask&(1<<uint(k)) != 0
		mask |= 1 << uint(k)
	}
	for _, k := range AllKinds() {
		if mask&(1<<uint(k)) != 0 {
			kinds = append(kinds, k)
		}
	}
	return kinds, dup, nil
}

// Text is one line of a record — its detail or a candidate's reason —
// kept as a constant format and typed operands and formatted only when
// read (see trace.AppendFormat). With no operands the format is the
// literal text. A recording site never builds a string: it passes
// names it already holds and numbers as they are.
type Text struct {
	format string
	args   []trace.Arg
}

// String formats the text; a literal returns itself without allocating.
func (t Text) String() string {
	if len(t.args) == 0 {
		return t.format
	}
	var buf [96]byte
	return string(trace.AppendFormat(buf[:0], t.format, t.args))
}

// Candidate is one option a decision considered. Score is
// lower-is-better at every site (placement scores, outstanding
// request counts), so the winner of a scored decision is the minimum.
type Candidate struct {
	Name   string
	Score  float64
	Reason Text
}

// KV is one named scalar input a decision read (headroom,
// interference, burn-rate state, credits...), kept typed until read. A
// slice of pairs keeps record rendering deterministic where a map would
// not be.
type KV struct {
	Key string
	Val trace.Arg
}

// Record is one audited decision. Chooser, Subject and Winner are
// names the producers already hold; Detail, candidate reasons and input
// values stay typed (format plus operands) and are rendered only by the
// read paths — the exports, Input, and the why tools.
type Record struct {
	At         sim.Time // virtual time of the choice
	Shard      int      // origin shard (0 = control plane, i+1 = host i)
	Seq        uint64   // per-shard sequence number (merge tie-break)
	Kind       Kind
	Chooser    string // who decided: "ctl", "host3", ...
	Subject    string // what the decision is about (VM, replica, zone)
	Winner     string // the chosen option ("-" when nothing was chosen)
	Detail     Text   // one-line human explanation
	Candidates []Candidate
	Inputs     []KV
}

// Input returns the named input value, formatted.
func (r *Record) Input(key string) (string, bool) {
	for _, kv := range r.Inputs {
		if kv.Key == key {
			return kv.Val.String(), true
		}
	}
	return "", false
}

// WinnerScore returns the winning candidate's score, when the winner
// appears in the candidate set.
func (r *Record) WinnerScore() (float64, bool) {
	for _, c := range r.Candidates {
		if c.Name == r.Winner {
			return c.Score, true
		}
	}
	return 0, false
}

// RunnerUp returns the best-scoring losing candidate — the
// counterfactual choice.
func (r *Record) RunnerUp() (Candidate, bool) {
	best, found := Candidate{}, false
	for _, c := range r.Candidates {
		if c.Name == r.Winner {
			continue
		}
		if !found || c.Score < best.Score {
			best, found = c, true
		}
	}
	return best, found
}

// Margin is how close the call was: runner-up score minus winner score
// (scores are lower-is-better, so a small positive margin means the
// decision nearly went the other way). Only defined when the winner
// was scored against at least one alternative.
func (r *Record) Margin() (float64, bool) {
	ws, ok := r.WinnerScore()
	if !ok {
		return 0, false
	}
	ru, ok := r.RunnerUp()
	if !ok {
		return 0, false
	}
	return ru.Score - ws, true
}

// Ring is one shard's bounded decision buffer. All methods are
// nil-safe no-ops, so hook sites pay one nil/mask check when the log
// is off. A Ring is single-shard state: written only by its shard's
// window execution (or barrier context) and drained only at barriers,
// the same discipline as the cluster's host outboxes.
//
// A record's variable-length parts — candidates, inputs, text
// operands — are carved from the ring's slabs (Candidates, Inputs,
// Text), so recording allocates only when a slab chunk fills.
type Ring struct {
	mask    uint32
	chooser string
	shard   int
	seq     uint64
	recs    trace.Ring[Record]
	log     *Log

	cands  slab[Candidate]
	inputs slab[KV]
	args   slab[trace.Arg]
}

// slabChunk is how many entries a slab chunk holds.
const slabChunk = 512

// slab hands out sub-slices of shared chunks, allocating a new chunk
// when the current one cannot fit a request. A chunk is never reused:
// merged records keep referring into it, and it is freed with the last
// of them. The first chunk is allocated on first use.
type slab[T any] struct {
	free []T // the current chunk's unused tail
}

// carve returns an empty slice with room for exactly n entries.
func (s *slab[T]) carve(n int) []T {
	if n <= 0 {
		return nil
	}
	if len(s.free) < n {
		s.free = make([]T, max(slabChunk, n))
	}
	out := s.free[:0:n]
	s.free = s.free[n:]
	return out
}

// Wants reports whether kind k is recorded. Hook sites call this
// before building a Record, so disabled logs never pay for candidate
// formatting.
func (r *Ring) Wants(k Kind) bool {
	return r != nil && r.mask&(1<<uint(k)) != 0
}

// Candidates returns an empty candidate list with room for n entries,
// carved from the ring's slab. Appending past n still works but
// allocates.
func (r *Ring) Candidates(n int) []Candidate {
	if r == nil {
		return nil
	}
	return r.cands.carve(n)
}

// Inputs returns kvs copied into the ring's slab.
func (r *Ring) Inputs(kvs ...KV) []KV {
	if r == nil {
		return nil
	}
	return append(r.inputs.carve(len(kvs)), kvs...)
}

// Text returns format with its operands copied into the ring's slab.
func (r *Ring) Text(format string, args ...trace.Arg) Text {
	if r == nil {
		return Text{}
	}
	return Text{format: format, args: append(r.args.carve(len(args)), args...)}
}

// Add appends rec, stamping the ring's shard, chooser, and next
// sequence number, and marks the ring for the log's next Merge. When
// the ring is full the oldest record is dropped (and counted).
func (r *Ring) Add(rec Record) {
	if r == nil {
		return
	}
	rec.Shard = r.shard
	rec.Chooser = r.chooser
	rec.Seq = r.seq
	r.seq++
	r.log.dirty.Add(r.shard)
	r.recs.Push(rec)
}

// Options sizes a decision log.
type Options struct {
	// PerShard bounds each shard ring (default 4096 — with barriers
	// every lookahead, a shard would need thousands of decisions per
	// 250µs window to drop anything). A ring allocates on first use
	// and grows on demand up to this bound.
	PerShard int
	// Total bounds the merged log (default 1<<20 records); the oldest
	// are dropped, and counted, beyond it.
	Total int
	// Kinds selects which decision kinds are recorded (empty = all).
	Kinds []Kind
}

func (o Options) withDefaults() Options {
	if o.PerShard <= 0 {
		o.PerShard = 4096
	}
	if o.Total <= 0 {
		o.Total = 1 << 20
	}
	if len(o.Kinds) == 0 {
		o.Kinds = AllKinds()
	}
	return o
}

// Log is the cluster-wide decision log: one Ring per shard, merged at
// barriers into one canonically ordered record sequence.
type Log struct {
	rings   []*Ring
	dirty   sim.IndexSet // shards whose ring was written since the last Merge
	merged  []Record
	total   int
	dropped uint64 // records past the Total bound
}

// NewLog builds a log with shards rings.
func NewLog(shards int, opt Options) *Log {
	opt = opt.withDefaults()
	var mask uint32
	for _, k := range opt.Kinds {
		if int(k) > 0 && int(k) < kindCount {
			mask |= 1 << uint(k)
		}
	}
	l := &Log{total: opt.Total, dirty: sim.NewIndexSet(shards)}
	for i := 0; i < shards; i++ {
		l.rings = append(l.rings, &Ring{
			log:     l,
			mask:    mask,
			shard:   i,
			chooser: fmt.Sprintf("shard%d", i),
			recs:    trace.NewRing[Record](opt.PerShard),
		})
	}
	return l
}

// Ring returns shard i's ring. A nil log returns a nil ring, so
// wiring code needs no conditionals.
func (l *Log) Ring(i int) *Ring {
	if l == nil || i < 0 || i >= len(l.rings) {
		return nil
	}
	return l.rings[i]
}

// Label names shard i's chooser (e.g. "ctl", "host3"). Nil-safe.
func (l *Log) Label(i int, chooser string) {
	if r := l.Ring(i); r != nil {
		r.chooser = chooser
	}
}

// minMergedGrow is the first allocation of the merged log.
const minMergedGrow = 1024

// Merge drains the rings written since the last Merge into the merged
// log under the canonical key: rings are concatenated in shard index
// order, then stable-sorted by time — exactly the (time, shard, order)
// merge the sharded engine applies to cross-shard mail. Called at
// every barrier (and once after the run), where all shards are parked;
// a barrier with no new records visits no ring. The batch is
// appended and sorted in place, and the merged log grows by doubling,
// so a barrier allocates only when the log outgrows its storage.
// Nil-safe.
func (l *Log) Merge() {
	if l == nil {
		return
	}
	start := len(l.merged)
	for i := l.dirty.Take(-1); i >= 0; i = l.dirty.Take(i) {
		r := l.rings[i]
		if need := len(l.merged) + r.recs.Len(); need > cap(l.merged) {
			l.merged = slices.Grow(l.merged, max(need, 2*cap(l.merged), minMergedGrow)-len(l.merged))
		}
		l.merged = r.recs.AppendTo(l.merged)
		r.recs.Reset()
	}
	if len(l.merged) == start {
		return
	}
	slices.SortStableFunc(l.merged[start:], func(a, b Record) int { return cmp.Compare(a.At, b.At) })
	if over := len(l.merged) - l.total; over > 0 {
		l.dropped += uint64(over)
		l.merged = append(l.merged[:0], l.merged[over:]...)
	}
}

// DirtyRings reports how many rings hold records the next Merge will
// take: the number of rings it visits. Nil-safe.
func (l *Log) DirtyRings() int {
	if l == nil {
		return 0
	}
	return l.dirty.Len()
}

// Records returns the merged log in canonical order. The slice is the
// log's own storage; callers must not mutate it.
func (l *Log) Records() []Record {
	if l == nil {
		return nil
	}
	return l.merged
}

// Dropped reports how many records were lost to ring or total bounds.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	n := l.dropped
	for _, r := range l.rings {
		n += r.recs.Dropped()
	}
	return n
}

// Counts returns per-kind record totals, indexed by Kind.
func Counts(recs []Record) []int {
	out := make([]int, kindCount)
	for i := range recs {
		if k := int(recs[i].Kind); k > 0 && k < kindCount {
			out[k]++
		}
	}
	return out
}

// CountsString renders non-zero per-kind totals in enum order, e.g.
// "place=10 route=21011 cordon=1".
func CountsString(recs []Record) string {
	counts := Counts(recs)
	var b strings.Builder
	for _, k := range AllKinds() {
		if counts[k] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, counts[k])
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// TrailStep is one labeled step of an incident trail.
type TrailStep struct {
	Label string
	Rec   Record
}

// Trail reduces a record sequence to its elasticity story: every
// cordon, the first failover route after each cordon (the moment
// traffic actually moved), and every autoscaler action. Routine
// steady-state decisions (placements, the other ~10^4 routes,
// migrations, uncordons) stay queryable but are not trail steps —
// the trail is the sequence a human would recount about the incident:
// cordon → failover → scale-up… → drain…
func Trail(recs []Record) []TrailStep {
	var out []TrailStep
	awaitFailover := false
	for i := range recs {
		r := recs[i]
		switch r.Kind {
		case KindCordon:
			out = append(out, TrailStep{Label: "cordon", Rec: r})
			awaitFailover = true
		case KindUncordon:
			awaitFailover = false
		case KindRoute:
			if awaitFailover {
				if _, ok := r.Input("failover"); ok {
					out = append(out, TrailStep{Label: "failover", Rec: r})
					awaitFailover = false
				}
			}
		case KindAutoscale:
			label := "scale-up"
			if act, _ := r.Input("act"); act == "down" {
				label = "drain"
			}
			out = append(out, TrailStep{Label: label, Rec: r})
		}
	}
	return out
}

// TrailString renders a trail as its comma-separated step labels —
// the form `irs why`'s -expect gate compares.
func TrailString(steps []TrailStep) string {
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Label)
	}
	return b.String()
}

// ClosestCalls returns the n scored decisions with the smallest
// winner-vs-runner-up margin — the counterfactual summary: where the
// schedule nearly went differently. Ties (and equal margins) keep
// canonical log order.
func ClosestCalls(recs []Record, n int) []Record {
	type scored struct {
		rec    Record
		margin float64
	}
	var calls []scored
	for i := range recs {
		if m, ok := recs[i].Margin(); ok {
			calls = append(calls, scored{rec: recs[i], margin: m})
		}
	}
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].margin < calls[j].margin })
	if n > len(calls) {
		n = len(calls)
	}
	out := make([]Record, 0, n)
	for _, c := range calls[:n] {
		out = append(out, c.rec)
	}
	return out
}
