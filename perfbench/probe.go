package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// windowProbe watches the sharded engine's window loop from an
// OnBarrier hook. The hook only reads the host clock and the shards'
// fired-event counters, so it cannot change what the simulation does.
type windowProbe struct {
	sh     *sim.ShardedEngine
	last   time.Time
	fired  []uint64
	hostNs []int64 // host time between consecutive barriers

	windows, activeShards, events int64
}

func newWindowProbe(sh *sim.ShardedEngine) *windowProbe {
	p := &windowProbe{sh: sh, fired: make([]uint64, sh.Shards()), hostNs: make([]int64, 0, 1<<18)}
	sh.OnBarrier(p.barrier)
	return p
}

func (p *windowProbe) start() { p.last = time.Now() }

func (p *windowProbe) barrier(sim.Time) {
	now := time.Now()
	p.hostNs = append(p.hostNs, int64(now.Sub(p.last)))
	p.last = now
	p.windows++
	for i := range p.fired {
		f := p.sh.Shard(i).Fired()
		if f != p.fired[i] {
			p.activeShards++
			p.events += int64(f - p.fired[i])
			p.fired[i] = f
		}
	}
}

// rtSample is a snapshot of the runtime counters a pass is judged by.
type rtSample struct {
	mem     runtime.MemStats
	cpu     map[string]float64
	gcs     uint64
	schedLt *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := rtSample{cpu: map[string]float64{}}
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	for _, m := range ms {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			s.cpu[m.Name] = m.Value.Float64()
		case metrics.KindUint64:
			s.gcs = m.Value.Uint64()
		case metrics.KindFloat64Histogram:
			s.schedLt = m.Value.Float64Histogram()
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	allocBytes, allocObjects uint64
	cpuTotal, cpuIdle, cpuGC float64
	gcCycles                 uint64
	schedCounts              []uint64
	schedBuckets             []float64
}

func (a rtSample) delta(b rtSample) rtDelta {
	d := rtDelta{
		allocBytes:   b.mem.TotalAlloc - a.mem.TotalAlloc,
		allocObjects: b.mem.Mallocs - a.mem.Mallocs,
		cpuTotal:     b.cpu["/cpu/classes/total:cpu-seconds"] - a.cpu["/cpu/classes/total:cpu-seconds"],
		cpuIdle:      b.cpu["/cpu/classes/idle:cpu-seconds"] - a.cpu["/cpu/classes/idle:cpu-seconds"],
		cpuGC:        b.cpu["/cpu/classes/gc/total:cpu-seconds"] - a.cpu["/cpu/classes/gc/total:cpu-seconds"],
		gcCycles:     b.gcs - a.gcs,
	}
	if a.schedLt != nil && b.schedLt != nil && len(a.schedLt.Counts) == len(b.schedLt.Counts) {
		d.schedBuckets = b.schedLt.Buckets
		d.schedCounts = make([]uint64, len(b.schedLt.Counts))
		for i := range d.schedCounts {
			d.schedCounts[i] = b.schedLt.Counts[i] - a.schedLt.Counts[i]
		}
	}
	return d
}

// histQuantile returns the upper bound of the bucket holding quantile
// q of a runtime/metrics histogram, or 0 when it is empty.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total)) + 1
	if rank > total {
		rank = total
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return buckets[i+1]
		}
	}
	return buckets[len(buckets)-1]
}

// resetPeakRSS returns free heap to the OS and restarts the kernel's
// peak-RSS counter for this process, so the next peakRSSMB reads the
// peak of what runs in between. Where /proc does not support the reset
// the error is dropped on purpose: peakRSSMB then reads the
// process-lifetime peak, which is still a peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set in MiB since the last reset
// (VmHWM), falling back to the Go runtime's own footprint when /proc is
// missing.
func peakRSSMB() float64 {
	if kb, ok := procField("/proc/self/status", "VmHWM:"); ok {
		return kb / 1024
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

func procField(path, key string) (float64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// hostInfo is run metadata, not a metric: it makes host drift between
// two result sets visible instead of silent.
type hostInfo struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	CalibMs    float64 `json:"calibration_ms"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	h.CalibMs = calibrate()
	return h
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed integer loop (median of five) so a result
// taken on a slower or busier host can be recognised as such.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return median(ts)
}

// median returns the middle value (mean of the two middle values for
// an even count) of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p / 100 * float64(len(sorted))))
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}
