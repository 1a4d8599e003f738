// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Each FigNN function runs the corresponding
// scenario matrix on the simulator and returns a Table with the same
// rows/series the paper plots. EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options controls experiment execution.
type Options struct {
	// Runs per data point (the paper averages 5; default 3).
	Runs int
	Seed uint64
	// Workers bounds how many simulations run concurrently. 0 selects
	// GOMAXPROCS (the parallel harness is on by default); 1 forces the
	// serial harness. Tables are byte-identical either way: results are
	// keyed and merged in canonical order and assembled by the same
	// serial code path (see parallel.go).
	Workers int
	// Verbose emits progress lines via Logf. Logf is only ever called
	// from the goroutine that invoked the experiment, never from
	// workers.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// interKind selects the interfering workload type (§5.1).
type interKind int

const (
	interHogs  interKind = iota + 1 // synthetic CPU hogs
	interBench                      // a real parallel application
)

// interference describes the background load.
type interference struct {
	kind  interKind
	bench workload.Benchmark // for interBench
	mode  workload.SyncMode
	level int // number of interfered foreground vCPUs
	vms   int // number of stacked interfering VMs (Fig. 11); default 1
}

func hogs(level int) interference { return interference{kind: interHogs, level: level, vms: 1} }

func benchInter(b workload.Benchmark, mode workload.SyncMode, level int) interference {
	return interference{kind: interBench, bench: b, mode: mode, level: level, vms: 1}
}

// setup is one simulator configuration point.
type setup struct {
	pcpus    int
	fgVCPUs  int
	bench    workload.Benchmark
	mode     workload.SyncMode
	strat    core.Strategy
	inter    interference
	unpinned bool
	horizon  sim.Time
}

// scenario materialises the setup for one seed.
func (s setup) scenario(seed uint64) core.Scenario {
	var fgPins, bgPins []int
	if !s.unpinned {
		fgPins = core.SeqPins(0, s.fgVCPUs)
		bgPins = core.SeqPins(0, s.inter.level)
	}
	fg := core.BenchmarkVM("fg", s.bench, s.mode, s.fgVCPUs, fgPins)
	fg.IRS = s.strat == core.StrategyIRS
	vms := []core.VMSpec{fg}
	for v := 0; v < s.inter.vms; v++ {
		name := fmt.Sprintf("bg%d", v)
		if s.inter.level <= 0 {
			break
		}
		switch s.inter.kind {
		case interHogs:
			vms = append(vms, core.HogVM(name, s.inter.level, bgPins))
		case interBench:
			vms = append(vms, core.BackgroundVM(name, s.inter.bench, s.inter.mode, s.inter.level, bgPins))
		}
	}
	horizon := s.horizon
	if horizon == 0 {
		horizon = 900 * sim.Second
	}
	return core.Scenario{
		PCPUs:    s.pcpus,
		Strategy: s.strat,
		Seed:     seed,
		Unpinned: s.unpinned,
		Horizon:  horizon,
		VMs:      vms,
	}
}

// point is the measured outcome of a setup, averaged over runs.
type point struct {
	fgRuntime float64 // seconds, mean
	bgRuntime float64 // seconds, mean per-completion of bg0 (0 if hogs)
	err       error
}

// harness caches measurements so vanilla baselines are shared, and
// carries the collect/execute/replay machinery of the parallel sweep
// runner (parallel.go).
type harness struct {
	opt  Options
	mode int // modeRun or modeCollect

	cache   map[string]point // assembled per-setup points
	results map[string]any   // memoized raw job results
	seen    map[string]bool  // keys already collected
	pending []pendingJob     // jobs awaiting the parallel phase
}

func newHarness(opt Options) *harness {
	return &harness{
		opt:     opt.withDefaults(),
		cache:   make(map[string]point),
		results: make(map[string]any),
		seen:    make(map[string]bool),
	}
}

func (h *harness) key(s setup) string {
	return fmt.Sprintf("%d|%d|%s|%d|%s|%d|%d|%d|%d|%v",
		s.pcpus, s.fgVCPUs, s.bench.Name, s.mode, s.strat,
		s.inter.kind, interName(s.inter), s.inter.level, s.inter.vms, s.unpinned)
}

func interName(i interference) int {
	if i.kind == interBench {
		return int(i.bench.Name[0])<<8 | int(i.bench.Name[len(i.bench.Name)-1])
	}
	return 0
}

// runOutcome is the raw result of one simulated run of a setup; it is
// what workers hand back to the assembly pass.
type runOutcome struct {
	fg  float64
	bg  float64
	err error
}

// runSetup executes one isolated simulation of s. It is a pure function
// of (s, seed) and safe to call from worker goroutines.
func runSetup(s setup, seed uint64) runOutcome {
	res, err := core.Run(s.scenario(seed))
	if err != nil {
		return runOutcome{err: err}
	}
	out := runOutcome{fg: res.VM("fg").Runtime.Seconds()}
	if bgr := res.VM("bg0"); bgr != nil && s.inter.kind == interBench {
		if m := bgr.MeanRuntime; m > 0 {
			out.bg = m.Seconds()
		}
	}
	return out
}

// measure runs the setup opt.Runs times and averages. The individual
// runs are jobs — fanned out by the parallel harness, executed inline
// by the serial one — while the averaging below is always done here, in
// run order, so both harnesses perform the identical float arithmetic.
func (h *harness) measure(s setup) point {
	k := h.key(s)
	if h.mode != modeCollect {
		if p, ok := h.cache[k]; ok {
			return p
		}
	}
	outs := make([]runOutcome, h.opt.Runs)
	for i := 0; i < h.opt.Runs; i++ {
		seed := h.opt.Seed + uint64(i)*7919
		outs[i] = jobAs(h, fmt.Sprintf("%s#%d", k, i), func() runOutcome {
			return runSetup(s, seed)
		})
	}
	if h.mode == modeCollect {
		return point{}
	}
	var fg, bg []float64
	var firstErr error
	for _, o := range outs {
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", k, o.err)
			}
			continue
		}
		fg = append(fg, o.fg)
		if o.bg > 0 {
			bg = append(bg, o.bg)
		}
	}
	p := point{err: firstErr}
	if len(fg) > 0 {
		p.fgRuntime = metrics.Summarize(fg).Mean
		p.err = nil
	}
	if len(bg) > 0 {
		p.bgRuntime = metrics.Summarize(bg).Mean
	}
	h.cache[k] = p
	h.opt.Logf("measured %s: fg=%.3fs bg=%.3fs err=%v", k, p.fgRuntime, p.bgRuntime, p.err)
	return p
}

// improvement returns the % runtime improvement of strat over vanilla
// for the given setup (positive = faster than vanilla).
func (h *harness) improvement(s setup, strat core.Strategy) float64 {
	base := s
	base.strat = core.StrategyVanilla
	vb := h.measure(base)
	s.strat = strat
	vm := h.measure(s)
	if vb.err != nil || vm.err != nil || vb.fgRuntime == 0 || vm.fgRuntime == 0 {
		return 0
	}
	return metrics.Improvement(vb.fgRuntime, vm.fgRuntime)
}

// weightedSpeedup returns the paper's §5.4 metric for a setup with a
// real background application.
func (h *harness) weightedSpeedup(s setup, strat core.Strategy) float64 {
	base := s
	base.strat = core.StrategyVanilla
	vb := h.measure(base)
	s.strat = strat
	vm := h.measure(s)
	if vb.err != nil || vm.err != nil || vm.fgRuntime == 0 || vb.fgRuntime == 0 {
		return 0
	}
	fgSp := metrics.Speedup(vb.fgRuntime, vm.fgRuntime)
	bgSp := 1.0
	if vb.bgRuntime > 0 && vm.bgRuntime > 0 {
		bgSp = metrics.Speedup(vb.bgRuntime, vm.bgRuntime)
	}
	return metrics.WeightedSpeedup(fgSp, bgSp)
}

func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// All runs every experiment and returns the tables in paper order.
func All(opt Options) []Table {
	return []Table{
		Fig1a(opt), Fig1b(opt), Fig2(opt),
		Fig5(opt), Fig6(opt), Fig7(opt), Fig8(opt), Fig9(opt),
		Fig10(opt), Fig11(opt), Fig12(opt), Fig13(opt),
		SADelay(opt),
	}
}

// ByID runs a single experiment by its table ID.
func ByID(id string, opt Options) (Table, bool) {
	switch strings.ToLower(id) {
	case "fig1a":
		return Fig1a(opt), true
	case "fig1b":
		return Fig1b(opt), true
	case "fig2":
		return Fig2(opt), true
	case "fig5":
		return Fig5(opt), true
	case "fig6":
		return Fig6(opt), true
	case "fig7":
		return Fig7(opt), true
	case "fig8":
		return Fig8(opt), true
	case "fig9":
		return Fig9(opt), true
	case "fig10":
		return Fig10(opt), true
	case "fig11":
		return Fig11(opt), true
	case "fig12":
		return Fig12(opt), true
	case "fig13":
		return Fig13(opt), true
	case "sa", "tab-sa", "sadelay":
		return SADelay(opt), true
	case "ab-pull":
		return AblationIRSPull(opt), true
	case "ab-salimit":
		return AblationSALimit(opt), true
	case "ab-ticket":
		return AblationTicketLock(opt), true
	case "ab-spinblock":
		return AblationSpinBlock(opt), true
	case "ab-strictco":
		return AblationStrictCo(opt), true
	case "claims":
		return EvaluateClaims(opt), true
	case "obs", "obs-counters":
		return ObsCounters(opt), true
	case "chaos":
		return Chaos(opt), true
	case "cluster":
		return Cluster(opt), true
	case "blame":
		return Blame(opt), true
	case "watch":
		return Watch(opt), true
	case "attack":
		return Attack(opt), true
	case "scale":
		return Scale(opt), true
	case "why":
		return Why(opt), true
	default:
		return Table{}, false
	}
}

// IDs lists all experiment identifiers (paper figures first, then the
// ablations this reproduction adds).
func IDs() []string {
	return []string{"fig1a", "fig1b", "fig2", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "sadelay",
		"ab-pull", "ab-salimit", "ab-ticket", "ab-spinblock", "ab-strictco",
		"claims", "obs", "chaos", "cluster", "blame", "watch", "attack", "scale", "why"}
}
