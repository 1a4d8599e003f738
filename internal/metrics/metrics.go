// Package metrics provides the measurement helpers used by the
// benchmark harness: latency reservoirs with percentile queries, basic
// summary statistics, and the fair-share / weighted-speedup arithmetic
// from the paper's evaluation (§5.1, §5.4).
package metrics

import (
	"math"
	"slices"

	"repro/internal/sim"
)

// Reservoir accumulates latency samples for percentile queries.
type Reservoir struct {
	samples []sim.Time
	sorted  bool
}

// Add records one sample.
func (r *Reservoir) Add(v sim.Time) {
	r.samples = append(r.samples, v)
	r.sorted = false
}

// Count returns the number of samples.
func (r *Reservoir) Count() int { return len(r.samples) }

// Mean returns the average sample, or 0 with no samples.
func (r *Reservoir) Mean() sim.Time {
	if len(r.samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, v := range r.samples {
		sum += v
	}
	return sum / sim.Time(len(r.samples))
}

// Max returns the largest sample. With no samples it returns 0; with
// samples it returns the true maximum even when every sample is
// negative (the old scan from zero clamped those to 0).
func (r *Reservoir) Max() sim.Time {
	if len(r.samples) == 0 {
		return 0
	}
	m := r.samples[0]
	for _, v := range r.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the total of all samples.
func (r *Reservoir) Sum() sim.Time {
	var sum sim.Time
	for _, v := range r.samples {
		sum += v
	}
	return sum
}

// Stddev returns the sample standard deviation (Bessel-corrected), or 0
// with fewer than two samples.
func (r *Reservoir) Stddev() sim.Time {
	if len(r.samples) < 2 {
		return 0
	}
	mean := float64(r.Mean())
	var ss float64
	for _, v := range r.samples {
		d := float64(v) - mean
		ss += d * d
	}
	return sim.Time(math.Sqrt(ss / float64(len(r.samples)-1)))
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank, or 0 with no samples.
func (r *Reservoir) Percentile(p float64) sim.Time {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.samples) {
		rank = len(r.samples)
	}
	return r.samples[rank-1]
}

// Quantiles returns the Percentile of each p in ps, sorting the
// reservoir at most once. With no samples every entry is 0.
func (r *Reservoir) Quantiles(ps ...float64) []sim.Time {
	out := make([]sim.Time, len(ps))
	for i, p := range ps {
		out[i] = r.Percentile(p)
	}
	return out
}

// Stats summarises a slice of float64 observations.
type Stats struct {
	N              int
	Mean, Min, Max float64
	Stddev         float64
}

// Summarize computes summary statistics.
func Summarize(xs []float64) Stats {
	s := Stats{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Improvement returns the percentage improvement of measured over
// baseline for a lower-is-better metric (runtime, latency):
// positive means measured is faster.
func Improvement(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - measured) / baseline * 100
}

// ThroughputImprovement returns the percentage improvement for a
// higher-is-better metric.
func ThroughputImprovement(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (measured - baseline) / baseline * 100
}

// Speedup returns baseline/measured for lower-is-better metrics
// (performance normalized to vanilla, as in §5.4).
func Speedup(baseline, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return baseline / measured
}

// WeightedSpeedup is the paper's system-efficiency metric: the average
// of the foreground and background speedups (§5.4).
func WeightedSpeedup(fg, bg float64) float64 { return (fg + bg) / 2 }

// FairShare computes a VM's fair CPU entitlement over an interval given
// per-pCPU competitor counts: for each pCPU the VM occupies, it is
// entitled to interval/(competitors on that pCPU).
//
// sharers[i] is the number of VMs with a vCPU pinned to the VM's i-th
// occupied pCPU (including the VM itself).
func FairShare(interval sim.Time, sharers []int) sim.Time {
	var total sim.Time
	for _, n := range sharers {
		if n <= 0 {
			continue
		}
		total += interval / sim.Time(n)
	}
	return total
}
