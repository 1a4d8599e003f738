package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// rigFlags select the traced interference rig that report and trace
// share: a 4-vCPU benchmark VM with -inter CPU hogs stacked on its
// first pCPUs, and the virtual-time window of its trace output.
type rigFlags struct {
	bench, strategy *string
	inter           *int
	seed            *uint64
	at, window      *time.Duration
}

func addRigFlags(fs *flag.FlagSet, strategies string) rigFlags {
	return rigFlags{
		bench:    fs.String("bench", "streamcluster", "benchmark to run (see irs sweep -list)"),
		strategy: fs.String("strategy", strategies, "comma-separated: vanilla,ple,relaxed-co,irs,strict-co"),
		inter:    fs.Int("inter", 1, "number of interfering CPU hogs"),
		seed:     fs.Uint64("seed", 1, "random seed"),
		at:       fs.Duration("at", time.Second, "start of the trace window (virtual time)"),
		window:   fs.Duration("window", 100*time.Millisecond, "length of the trace window"),
	}
}

// resolve looks up the benchmark and the strategy list; a nonzero code
// means the error is already reported.
func (r rigFlags) resolve(c *cli) (workload.Benchmark, []core.Strategy, int) {
	bench, ok := workload.ByName(*r.bench)
	if !ok {
		return bench, nil, c.fail(1, "unknown benchmark %q (try: irs sweep -list)", *r.bench)
	}
	strats, err := kv.List(*r.strategy, hypervisor.ParseStrategy)
	if err != nil {
		return bench, nil, c.fail(2, "-strategy: %v", err)
	}
	return bench, strats, 0
}

// tracedRig builds the rig under one strategy, with a scheduling trace
// attached to the hypervisor and the benchmark VM's guest.
func tracedRig(bench workload.Benchmark, strat core.Strategy, inter int, seed uint64) (core.Scenario, *trace.Log) {
	log := trace.NewLog(500000)
	fg := core.BenchmarkVM("fg", bench, 0, 4, core.SeqPins(0, 4))
	fg.IRS = strat == core.StrategyIRS
	vms := []core.VMSpec{fg}
	if inter > 0 {
		vms = append(vms, core.HogVM("bg", inter, core.SeqPins(0, inter)))
	}
	return core.Scenario{
		PCPUs:    4,
		Strategy: strat,
		Seed:     seed,
		VMs:      vms,
		TuneHV:   func(c *hypervisor.Config) { c.Trace = log },
		TuneGuest: func(name string, c *guest.Config) {
			if name == "fg" {
				c.Trace = log
			}
		},
	}, log
}

// runTrace runs the rig under one strategy and dumps the scheduling
// timeline in the window: vCPU state transitions, pCPU context
// switches, scheduler activations, and guest task migrations.
func runTrace(c *cli, args []string) int {
	rig := addRigFlags(c.fs, "irs")
	kindsArg := c.fs.String("kinds", "", "comma-separated filter: vcpu,switch,sa,task,migrate,note")
	if !c.parseFlags(args) {
		return 2
	}
	bench, strats, code := rig.resolve(c)
	if code != 0 {
		return code
	}
	if len(strats) != 1 {
		return c.fail(2, "-strategy: trace takes one strategy, got %d", len(strats))
	}
	allowed, err := trace.ParseKinds(*kindsArg)
	if err != nil {
		return c.fail(2, "%v", err)
	}

	scn, log := tracedRig(bench, strats[0], *rig.inter, *rig.seed)
	res, err := core.Run(scn)
	if err != nil {
		return c.fail(1, "%v", err)
	}
	from := sim.Duration(*rig.at)
	to := from + sim.Duration(*rig.window)
	shown := 0
	for _, e := range log.Events() {
		if e.At < from || e.At > to || allowed != nil && !allowed[e.Kind] {
			continue
		}
		fmt.Fprintln(c.stdout, e)
		shown++
	}
	fmt.Fprintf(c.stdout, "\n%d events shown (window %v..%v, %d dropped at capacity); totals: %s\n",
		shown, from, to, log.Dropped(), log.Summary())
	fmt.Fprintf(c.stdout, "runtime=%v SA sent/acked/expired=%d/%d/%d\n",
		res.VM("fg").Runtime, res.SASent, res.SAAcked, res.SAExpired)
	return 0
}

// runReport runs the rig with full telemetry — the typed metrics
// registry, the periodic time-series sampler, and the scheduling trace
// — and emits, per strategy, a summary on stdout (per-vCPU steal time,
// preemption-wait and SA ack-latency histograms, LHP/LWP counts,
// migration counters) plus optional exports: Prometheus text, CSV time
// series, and Chrome trace JSON of the window. With -faults the plan
// (see fault.ParsePlan) is injected into every run, the invariant
// checker is attached, and the summary gains injected-fault and
// violation counts.
func runReport(c *cli, args []string) int {
	rig := addRigFlags(c.fs, "vanilla,irs")
	sample := c.fs.Duration("sample", 10*time.Millisecond, "sampler cadence (virtual time)")
	promPath := c.fs.String("prom", "", "write Prometheus text export to this file (- for stdout)")
	csvPath := c.fs.String("csv", "", "write CSV time-series export to this file (- for stdout)")
	traceJSON := c.fs.String("tracejson", "", "write Chrome trace JSON of the window to this file (- for stdout)")
	faultSpec := c.fs.String("faults", "", "fault plan, e.g. drop-sa=0.1,dup-sa=0.05 (see fault.ParsePlan; \"none\" disables)")
	faultSeed := c.fs.Uint64("fault-seed", 0, "fault injector seed (0 derives from -seed)")
	workers := c.fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	if !c.parseFlags(args) {
		return 2
	}
	plan, err := fault.ParsePlan(*faultSpec)
	if err != nil {
		return c.fail(2, "-faults: %v", err)
	}
	bench, strats, code := rig.resolve(c)
	if code != 0 {
		return code
	}

	// Each strategy's run is an isolated simulation: fan them out and
	// buffer the output so stdout/stderr stay in strategy order and the
	// emitted report is byte-identical to a serial run.
	type reportOut struct {
		out, errOut bytes.Buffer
		err         error
	}
	outs := make([]reportOut, len(strats))
	fns := make([]func(), len(strats))
	for i, strat := range strats {
		fns[i] = func() {
			sc := &cli{name: c.name, stdout: &outs[i].out, stderr: &outs[i].errOut}
			outs[i].err = report(sc, bench, *rig.bench, strat, *rig.inter, *rig.seed,
				sim.Duration(*sample), *promPath, *csvPath, *traceJSON,
				sim.Duration(*rig.at), sim.Duration(*rig.window), len(strats) > 1, plan, *faultSeed)
		}
	}
	experiments.ParallelDo(*workers, fns)
	for i := range outs {
		io.Copy(c.stdout, &outs[i].out)
		io.Copy(c.stderr, &outs[i].errOut)
		if outs[i].err != nil {
			return c.fail(1, "%v", outs[i].err)
		}
	}
	return 0
}

// report runs one strategy with telemetry attached and emits its
// summary and exports.
func report(c *cli, bench workload.Benchmark, benchName string, strat core.Strategy, inter int, seed uint64,
	sample sim.Time, promPath, csvPath, traceJSON string, at, window sim.Time, multi bool,
	plan fault.Plan, faultSeed uint64) error {

	reg := obs.NewRegistry()
	scn, log := tracedRig(bench, strat, inter, seed)
	scn.Metrics = reg
	scn.SampleInterval = sample
	scn.Faults = plan
	scn.FaultSeed = faultSeed
	scn.Invariants = !plan.Zero()
	cluster, err := core.Build(scn)
	if err != nil {
		return err
	}
	res, err := cluster.Run()
	if errors.Is(err, core.ErrUnfinished) {
		// Under fault injection a run may stall; the partial telemetry
		// is exactly what the report is for.
		c.logf("%s: %v (reporting partial run)", strat, err)
	} else if err != nil {
		return err
	}
	// One final snapshot so the series include the end-of-run state.
	cluster.Sampler.Sample()

	writeSummary(c.stdout, reg, cluster.Sampler, res, benchName, strat, inter, seed, plan)

	for _, exp := range []struct {
		path  string
		label string
		write func(io.Writer) error
	}{
		{promPath, "prometheus", func(w io.Writer) error { return obs.WritePrometheus(w, reg) }},
		{csvPath, "csv", func(w io.Writer) error { return obs.WriteCSV(w, cluster.Sampler) }},
		{traceJSON, "chrome-trace", func(w io.Writer) error { return log.WriteChromeTrace(w, at, at+window) }},
	} {
		path := exp.path
		switch {
		case path == "":
			continue
		case path == "-":
			fmt.Fprintf(c.stdout, "--- %s (%s) ---\n", exp.label, strat)
		case multi:
			path = insertSuffix(path, strat.String())
		}
		if err := writeOut(path, c.stdout, exp.write); err != nil {
			return err
		}
		if path != "-" {
			c.logf("wrote %s to %s", exp.label, path)
		}
	}
	return nil
}

// insertSuffix turns "out.csv" + "irs" into "out.irs.csv".
func insertSuffix(path, suffix string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + suffix + ext
}

// writeSummary renders the human-readable telemetry digest.
func writeSummary(w io.Writer, reg *obs.Registry, smp *obs.Sampler, res *core.Result,
	benchName string, strat core.Strategy, inter int, seed uint64, plan fault.Plan) {

	fmt.Fprintf(w, "== irs report: bench=%s inter=%d strategy=%s seed=%d ==\n",
		benchName, inter, strat, seed)
	fgRes := res.VM("fg")
	fmt.Fprintf(w, "runtime            %s (elapsed %s, %d sim events)\n",
		fgRes.Runtime, res.Elapsed, res.Events)

	for _, vr := range res.VMs {
		var parts []string
		for _, v := range vr.Kernel.VM().VCPUs {
			steal := obs.CounterTime(reg, "hv_runstate_ns",
				obs.Labels{Sub: "hv", VM: vr.Name, CPU: v.Name(), Kind: "runnable"})
			parts = append(parts, fmt.Sprintf("%s=%s", v.Name(), steal))
		}
		fmt.Fprintf(w, "steal per vCPU     %s\n", strings.Join(parts, " "))
	}

	fgL := obs.Labels{Sub: "hv", VM: "fg"}
	fmt.Fprintf(w, "preempt wait (fg)  %s\n",
		obs.HistogramLine(reg.FindHistogram("hv_preempt_wait_ns", fgL)))
	fmt.Fprintf(w, "SA ack latency     %s\n",
		obs.HistogramLine(reg.FindHistogram("hv_sa_ack_ns", fgL)))
	fmt.Fprintf(w, "SA sent/ack/exp    %d/%d/%d (pending %d, fallbacks %d)\n",
		obs.CounterValue(reg, "hv_sa_sent_total", fgL),
		obs.CounterValue(reg, "hv_sa_acked_total", fgL),
		obs.CounterValue(reg, "hv_sa_expired_total", fgL),
		res.SAPending, res.SAFallbacks)
	if !plan.Zero() {
		fmt.Fprintf(w, "faults injected    %d (plan %s)\n", res.FaultsInjected, plan)
		fmt.Fprintf(w, "invariants         %d violations\n", res.Violations)
	}
	fmt.Fprintf(w, "LHP/LWP (fg)       %d/%d\n",
		obs.CounterValue(reg, "hv_lhp_total", fgL),
		obs.CounterValue(reg, "hv_lwp_total", fgL))
	fmt.Fprintf(w, "boost wakeups (fg) %d\n",
		obs.CounterValue(reg, "hv_boost_total", fgL))

	gL := obs.Labels{Sub: "guest", VM: "fg"}
	fmt.Fprintf(w, "guest migrations   task=%d wake=%d pull=%d irs=%d irs-pull=%d\n",
		obs.CounterValue(reg, "guest_task_migrations_total", gL),
		obs.CounterValue(reg, "guest_wake_migrations_total", gL),
		obs.CounterValue(reg, "guest_pull_migrations_total", gL),
		obs.CounterValue(reg, "guest_irs_migrations_total", gL),
		obs.CounterValue(reg, "guest_irs_pull_steals_total", gL))
	fmt.Fprintf(w, "migrator latency   %s\n",
		obs.HistogramLine(reg.FindHistogram("guest_migrator_latency_ns", gL)))
	fmt.Fprintf(w, "spin waits (fg)    %d\n",
		obs.CounterValue(reg, "guest_spin_waits_total", gL))

	hvL := obs.Labels{Sub: "hv"}
	var switches []string
	for i := int64(0); ; i++ {
		c := reg.FindCounter("hv_ctx_switches_total", obs.Labels{Sub: "hv", CPU: fmt.Sprintf("p%d", i)})
		if c == nil {
			break
		}
		switches = append(switches, fmt.Sprintf("p%d=%d", i, c.Value()))
	}
	fmt.Fprintf(w, "pCPU ctx switches  %s\n", strings.Join(switches, " "))
	fmt.Fprintf(w, "vCPU migrations    %d (steal attempts=%d moves=%d, PLE yields=%d)\n",
		obs.CounterValue(reg, "hv_vcpu_migrations_total", hvL),
		obs.CounterValue(reg, "hv_steal_attempts_total", hvL),
		obs.CounterValue(reg, "hv_steal_moves_total", hvL),
		obs.CounterValue(reg, "hv_ple_yields_total", hvL))
	fmt.Fprintf(w, "telemetry          %d metrics, %d samples, %d series\n\n",
		reg.Len(), smp.Samples(), len(smp.AllSeries()))
}
