// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed for a time budget, checks that the
// simulated outputs are correct, and prints one JSON result line.
//
//	perfbench --workload host-matrix --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced passes (CPU profile, barrier probe) and reports
// the per-layer metrics. Host time is wall-clock on the running
// machine; simulated time is the model's virtual clock, and every
// metric says which it uses.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the --trace 0 metrics: what a user of the simulator
// sees, all host-side and never zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median host time of one set-up of the whole workload
	{"wall_s", "s"},          // host time inside Run, summed over the workload's simulations
	{"alloc_mb", "MiB"},      // heap bytes allocated by one pass
	{"allocs_m", "millions"}, // heap allocations by one pass
	{"peak_rss_mb", "MiB"},   // peak resident set during one pass
}

// setupRounds is how many set-up-only rounds precede the passes; with
// each pass's own set-up they give setup_s its median.
const setupRounds = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (host-matrix, rack-outage, rack-observed)")
	seed := fs.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 25, "measurement budget in host seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of host-matrix, rack-outage, rack-observed, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	refs, err := parseRefs(refsText)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	host := readHostInfo()
	m, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	m.checkDigests(refs[w.ref], *seed)

	var metrics map[string]metricValue
	if *trace == 1 {
		metrics = m.perLayer()
	} else {
		metrics = m.endToEnd()
	}
	meta := m.meta(host, *seed, *seconds, *trace)
	report(stderr, w.name, metrics, m)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(result{Correct: m.correct(), Attempted: m.attempted(), Failed: m.failed(), Metrics: metrics}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !m.correct() {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is everything one invocation observed.
type measurement struct {
	w        workloadDef
	setups   []float64 // seconds: set-up-only rounds, then each pass
	passes   []passResult
	rt       []rtDelta
	peakMB   []float64 // per-pass peak resident set
	traced   []bool
	prof     *layerProfile
	problems []string // run-level check failures
	refState string   // "match", "none" or "mismatch"
}

// measure runs set-up rounds, then passes until the budget is spent.
// In trace mode passes alternate untraced and traced, starting
// untraced, and at least one of each runs.
func measure(w workloadDef, seed uint64, budget time.Duration, trace bool) (*measurement, error) {
	m := &measurement{w: w, prof: newLayerProfile()}
	if err := checkInputs(w, seed); err != nil {
		m.problems = append(m.problems, err.Error())
	}
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		d, err := w.setup(seed)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d.Seconds())
	}
	minPasses := 1
	if trace {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		resetPeakRSS()
		var buf bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, err
			}
		}
		a := readRuntime()
		p := w.pass(seed, traced)
		b := readRuntime()
		if traced {
			pprof.StopCPUProfile()
			if err := m.prof.addPprof(buf.Bytes()); err != nil {
				return nil, err
			}
		}
		m.passes = append(m.passes, p)
		m.rt = append(m.rt, a.delta(b))
		m.traced = append(m.traced, traced)
		m.peakMB = append(m.peakMB, peakRSSMB())
		m.setups = append(m.setups, p.setup.Seconds())
		if i+1 >= minPasses && time.Since(start) >= budget {
			break
		}
	}
	return m, nil
}

// checkInputs verifies the generated inputs themselves.
func checkInputs(w workloadDef, seed uint64) error {
	if w.ref == "rack" {
		return checkRoundTrip(rackLoad(seed).Spec)
	}
	return nil
}

// checkDigests requires every pass, traced or not, to reproduce the
// first pass's digest, and the first to match the shipped reference
// for this seed when there is one.
func (m *measurement) checkDigests(refs map[uint64]uint64, seed uint64) {
	first := m.passes[0].digest
	for i := range m.passes {
		if m.passes[i].digest != first {
			m.problems = append(m.problems, fmt.Sprintf("pass %d digest %016x differs from pass 0 %016x", i, m.passes[i].digest, first))
			m.passes[i].failed = m.passes[i].sims
		}
	}
	want, ok := refs[seed]
	switch {
	case !ok:
		m.refState = "none"
	case want == first:
		m.refState = "match"
	default:
		m.refState = "mismatch"
		m.problems = append(m.problems, fmt.Sprintf("digest %016x does not match reference %016x for seed %d", first, want, seed))
		for i := range m.passes {
			m.passes[i].failed = m.passes[i].sims
		}
	}
}

func (m *measurement) attempted() int {
	n := 0
	for _, p := range m.passes {
		n += p.sims
	}
	return n
}

func (m *measurement) failed() int {
	n := 0
	for _, p := range m.passes {
		n += p.failed
	}
	return n
}

func (m *measurement) correct() bool {
	return m.failed() == 0 && len(m.problems) == 0
}

// selectPasses returns the indices of traced (or untraced) passes.
func (m *measurement) selectPasses(traced bool) []int {
	var idx []int
	for i, t := range m.traced {
		if t == traced {
			idx = append(idx, i)
		}
	}
	return idx
}

// wallS is the workload's host run time: for each simulation the
// median over the given passes, summed. Per-simulation medians keep a
// burst of host noise in one pass from moving the whole figure.
func (m *measurement) wallS(idx []int) float64 {
	n := len(m.passes[idx[0]].run)
	total := 0.0
	for c := 0; c < n; c++ {
		var xs []float64
		for _, i := range idx {
			if c < len(m.passes[i].run) {
				xs = append(xs, m.passes[i].run[c].Seconds())
			}
		}
		total += median(xs)
	}
	return total
}

func (m *measurement) medianOf(idx []int, f func(i int) float64) float64 {
	var xs []float64
	for _, i := range idx {
		xs = append(xs, f(i))
	}
	return median(xs)
}

func (m *measurement) endToEnd() map[string]metricValue {
	idx := m.selectPasses(false)
	vals := map[string]float64{
		"setup_s":     median(m.setups),
		"wall_s":      m.wallS(idx),
		"alloc_mb":    m.medianOf(idx, func(i int) float64 { return float64(m.rt[i].allocBytes) / (1 << 20) }),
		"allocs_m":    m.medianOf(idx, func(i int) float64 { return float64(m.rt[i].allocObjects) / 1e6 }),
		"peak_rss_mb": m.medianOf(idx, func(i int) float64 { return m.peakMB[i] }),
	}
	out := map[string]metricValue{}
	for _, d := range endToEnd {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out
}

// meta is run metadata printed before the result line: the host, the
// sample counts behind each median, the modelled metrics and the
// checks.
func (m *measurement) meta(host hostInfo, seed uint64, seconds float64, trace int) map[string]any {
	u, t := m.selectPasses(false), m.selectPasses(true)
	failedFrac := 0.0
	if a := m.attempted(); a > 0 {
		failedFrac = float64(m.failed()) / float64(a)
	}
	return map[string]any{
		"workload":      m.w.name,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
		"host":          host,
		"passes":        len(u),
		"traced_passes": len(t),
		"samples": map[string]int{
			"setup_s":     len(m.setups),
			"wall_s":      len(u),
			"alloc_mb":    len(u),
			"allocs_m":    len(u),
			"peak_rss_mb": len(u),
		},
		"model":       m.passes[0].model,
		"failed_frac": failedFrac,
		"digest":      fmt.Sprintf("%016x", m.passes[0].digest),
		"reference":   m.refState,
		"problems":    m.allProblems(),
	}
}

func (m *measurement) allProblems() []string {
	out := append([]string(nil), m.problems...)
	for i, p := range m.passes {
		for _, s := range p.problems {
			out = append(out, fmt.Sprintf("pass %d: %s", i, s))
		}
	}
	return out
}

// report prints a human-readable summary to w.
func report(w io.Writer, name string, metrics map[string]metricValue, m *measurement) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "perfbench %s: %d passes, %d simulations, %d failed, reference %s\n",
		name, len(m.passes), m.attempted(), m.failed(), m.refState)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(w, "  pass host run s:")
	for i, p := range m.passes {
		total := time.Duration(0)
		for _, d := range p.run {
			total += d
		}
		mark := ""
		if m.traced[i] {
			mark = "*"
		}
		fmt.Fprintf(w, " %.3f%s", total.Seconds(), mark)
	}
	fmt.Fprintln(w)
	for _, p := range m.allProblems() {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
}
