// Package watch is the online half of the simulator's observability:
// where internal/obs answers questions after a run, watch answers them
// while the run is still going. It keeps a windowed rollup store over
// virtual time (fixed-interval ring buckets with min/max/sum/count and
// mergeable quantile sketches), evaluates multi-window burn-rate SLO
// rules against the router's violation stream, attributes alerts to
// noisy neighbors by correlating victim pain against co-resident VM
// pCPU occupancy, and snapshots a flight-recorder incident bundle when
// an alert fires or an invariant trips.
//
// Like span and obs, watch is pay-as-you-go: a run that never attaches
// a Watcher pays only dead nil-checks at the hook sites.
package watch

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Window is one fixed-interval rollup bucket: [Start, Start+interval)
// in virtual time. Count/Sum/Min/Max are exact; Sketch (optional)
// carries bounded-relative-error quantiles that merge exactly across
// windows.
type Window struct {
	Start  sim.Time
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
	Sketch *obs.Sketch
}

// Empty reports whether the window saw no observations.
func (w Window) Empty() bool { return w.Count == 0 }

// Mean returns Sum/Count, or 0 for an empty window.
func (w Window) Mean() float64 {
	if w.Count == 0 {
		return 0
	}
	return w.Sum / float64(w.Count)
}

// observe folds one value into the window.
func (w *Window) observe(v float64, alpha float64) {
	if w.Count == 0 || v < w.Min {
		w.Min = v
	}
	if w.Count == 0 || v > w.Max {
		w.Max = v
	}
	w.Count++
	w.Sum += v
	if alpha > 0 {
		if w.Sketch == nil {
			w.Sketch = obs.NewSketch(alpha)
		}
		w.Sketch.Add(sim.Time(v))
	}
}

// Rollup merges a set of windows into one aggregate window — the
// operation behind every multi-window SLO evaluation. It is associative
// and commutative: min/max/sum/count combine trivially and sketches
// merge bucket-wise (see obs.Sketch.Merge), so Rollup(a, Rollup(b, c))
// equals Rollup(Rollup(a, b), c). The result's Start is the earliest
// non-empty window's Start; its Sketch (if any input had one) is a
// fresh sketch, never an alias of an input's.
func Rollup(ws ...Window) Window {
	var out Window
	for _, w := range ws {
		if w.Empty() {
			continue
		}
		if out.Count == 0 {
			out.Start = w.Start
			out.Min = w.Min
			out.Max = w.Max
		} else {
			if w.Start < out.Start {
				out.Start = w.Start
			}
			if w.Min < out.Min {
				out.Min = w.Min
			}
			if w.Max > out.Max {
				out.Max = w.Max
			}
		}
		out.Count += w.Count
		out.Sum += w.Sum
		if w.Sketch != nil {
			if out.Sketch == nil {
				out.Sketch = obs.NewSketch(w.Sketch.Alpha())
			}
			out.Sketch.Merge(w.Sketch)
		}
	}
	return out
}

// Series is a ring of consecutive windows for one metric: depth windows
// of a fixed interval, indexed by aligned start time. Observations land
// in the window covering their timestamp; writing a window whose slot
// holds an older epoch evicts it, so the ring always covers the most
// recent depth intervals that saw traffic.
type Series struct {
	interval sim.Time
	alpha    float64 // >0 enables per-window sketches
	ring     []Window
}

// NewSeries returns an empty series of depth windows of the given
// interval. alpha > 0 attaches a quantile sketch to each window.
func NewSeries(interval sim.Time, depth int, alpha float64) *Series {
	if interval <= 0 {
		panic("watch: NewSeries needs a positive interval")
	}
	if depth <= 0 {
		panic("watch: NewSeries needs a positive depth")
	}
	s := &Series{interval: interval, ring: make([]Window, depth)}
	s.alpha = alpha
	for i := range s.ring {
		s.ring[i].Start = -1 // no window ever starts at negative time
	}
	return s
}

// Interval returns the window width.
func (s *Series) Interval() sim.Time { return s.interval }

// Depth returns the ring capacity in windows.
func (s *Series) Depth() int { return len(s.ring) }

// slot returns the ring position for the window starting at ws.
func (s *Series) slot(ws sim.Time) int {
	return int((ws / s.interval) % sim.Time(len(s.ring)))
}

// Observe folds v into the window covering time at.
func (s *Series) Observe(at sim.Time, v float64) {
	ws := at - at%s.interval
	i := s.slot(ws)
	if s.ring[i].Start != ws {
		s.ring[i] = Window{Start: ws}
	}
	s.ring[i].observe(v, s.alpha)
}

// WindowsBetween returns the non-empty windows overlapping [from, to),
// oldest first (the window containing `from` is included even when
// `from` cuts it in half). from is clamped to 0; windows evicted from
// the ring are simply absent.
func (s *Series) WindowsBetween(from, to sim.Time) []Window {
	if from < 0 {
		from = 0
	}
	// Align down: the window containing `from` is included, so ranges
	// that cut a window in half still see its data.
	start := from - from%s.interval
	var out []Window
	for ws := start; ws < to; ws += s.interval {
		i := s.slot(ws)
		if s.ring[i].Start == ws && !s.ring[i].Empty() {
			out = append(out, s.ring[i])
		}
	}
	return out
}

// WindowAt returns the window starting exactly at ws, if the ring
// still holds it.
func (s *Series) WindowAt(ws sim.Time) (Window, bool) {
	if ws < 0 || ws%s.interval != 0 {
		return Window{}, false
	}
	i := s.slot(ws)
	if s.ring[i].Start != ws {
		return Window{}, false
	}
	return s.ring[i], true
}

// RollupBetween merges the windows in [from, to) into one aggregate.
func (s *Series) RollupBetween(from, to sim.Time) Window {
	return Rollup(s.WindowsBetween(from, to)...)
}

// Store maps metric identities (name + obs labels) to windowed series,
// all sharing one interval and depth. It is the watcher's working set:
// sampler points, pain signals, and occupancy deltas all land here.
type Store struct {
	interval sim.Time
	depth    int

	// sketchAlpha, when > 0, is applied to series whose name is listed
	// in sketchFor.
	sketchAlpha float64
	sketchFor   map[string]bool

	entries map[storeKey]*storeEntry
}

// storeKey identifies a series. It is compared as a struct, so
// observing a point formats nothing.
type storeKey struct {
	name   string
	labels obs.Labels
}

type storeEntry struct {
	name   string
	labels obs.Labels
	series *Series
}

// NewStore returns an empty store with the given window interval and
// ring depth.
func NewStore(interval sim.Time, depth int) *Store {
	if interval <= 0 {
		panic("watch: NewStore needs a positive interval")
	}
	if depth <= 0 {
		panic("watch: NewStore needs a positive depth")
	}
	return &Store{
		interval:    interval,
		depth:       depth,
		sketchAlpha: obs.DefaultSketchAlpha,
		sketchFor:   map[string]bool{},
		entries:     map[storeKey]*storeEntry{},
	}
}

// Interval returns the store's window width.
func (st *Store) Interval() sim.Time { return st.interval }

// SketchSeries marks series names whose windows should carry quantile
// sketches (typically latency-like series; counters don't need them).
func (st *Store) SketchSeries(names ...string) {
	for _, n := range names {
		st.sketchFor[n] = true
	}
}

// Observe folds a point into the series for (name, labels), creating
// it on first use.
func (st *Store) Observe(name string, l obs.Labels, at sim.Time, v float64) {
	key := storeKey{name, l}
	e := st.entries[key]
	if e == nil {
		alpha := 0.0
		if st.sketchFor[name] {
			alpha = st.sketchAlpha
		}
		e = &storeEntry{name: name, labels: l, series: NewSeries(st.interval, st.depth, alpha)}
		st.entries[key] = e
	}
	e.series.Observe(at, v)
}

// Attach subscribes the store to a sampler: every sampled point is
// folded into the matching windowed series as it lands.
func (st *Store) Attach(s *obs.Sampler) {
	if s == nil {
		return
	}
	s.OnPoint = func(name string, l obs.Labels, at sim.Time, v float64) {
		st.Observe(name, l, at, v)
	}
}

// Series returns the series for (name, labels), or nil.
func (st *Store) Series(name string, l obs.Labels) *Series {
	e := st.entries[storeKey{name, l}]
	if e == nil {
		return nil
	}
	return e.series
}

// Len returns the number of distinct series.
func (st *Store) Len() int { return len(st.entries) }

// Visit calls fn for every series in deterministic order: by the
// series name followed by its rendered label set.
func (st *Store) Visit(fn func(name string, l obs.Labels, s *Series)) {
	type sortable struct {
		key string
		e   *storeEntry
	}
	es := make([]sortable, 0, len(st.entries))
	for _, e := range st.entries {
		es = append(es, sortable{e.name + e.labels.String(), e})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	for _, s := range es {
		fn(s.e.name, s.e.labels, s.e.series)
	}
}
