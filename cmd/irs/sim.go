package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// runSim regenerates the paper's tables and figures by experiment id.
func runSim(c *cli, args []string) int {
	runs := c.fs.Int("runs", 3, "simulated runs per data point (paper: 5)")
	seed := c.fs.Uint64("seed", 1, "base random seed")
	verbose := c.fs.Bool("v", false, "log each measurement")
	workers := c.fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	ids, ok := c.parse(args)
	if !ok {
		return 2
	}
	if len(ids) == 0 {
		fmt.Fprintln(c.stderr, "usage: irs sim [flags] list | all | <experiment-id>...")
		c.fs.PrintDefaults()
		return 2
	}

	opt := experiments.Options{Runs: *runs, Seed: *seed, Workers: *workers}
	if *verbose {
		opt.Logf = func(format string, a ...any) {
			fmt.Fprintf(c.stderr, format+"\n", a...)
		}
	}
	if len(ids) == 1 {
		switch strings.ToLower(ids[0]) {
		case "list":
			for _, id := range experiments.IDs() {
				fmt.Fprintln(c.stdout, id)
			}
			return 0
		case "all":
			ids = experiments.IDs()
		}
	}

	code := 0
	for _, id := range ids {
		start := time.Now()
		tb, ok := experiments.ByID(id, opt)
		if !ok {
			code = c.fail(1, "unknown experiment %q (try: irs sim list)", id)
			continue
		}
		fmt.Fprint(c.stdout, tb)
		fmt.Fprintln(c.stdout)
		c.logf("%s took %.1fs wall", id, time.Since(start).Seconds())
	}
	return code
}

// runSweep runs ad-hoc parameter sweeps. The default dimension is one
// benchmark against a range of interference levels under all four
// scheduling strategies; -cluster instead sweeps the multi-host
// placement variants (first-fit, least-loaded, interference-aware ±
// IRS) across rack sizes. Every cell is an isolated deterministic
// simulation fanned out across worker goroutines, so the printed table
// is the same at any -workers.
func runSweep(c *cli, args []string) int {
	benchName := c.fs.String("bench", "streamcluster", "benchmark name (see -list)")
	interList := c.fs.String("inter", "0,1,2,4", "comma-separated interference levels")
	modeName := c.fs.String("mode", "", "override wait policy: spin or block")
	vcpus := c.fs.Int("vcpus", 4, "foreground vCPUs (== pCPUs)")
	unpinned := c.fs.Bool("unpinned", false, "leave vCPUs unpinned (stacking setup)")
	seed := c.fs.Uint64("seed", 1, "base random seed")
	runs := c.fs.Int("runs", 3, "runs per data point")
	list := c.fs.Bool("list", false, "list benchmark names and exit")
	clusterSweep := c.fs.Bool("cluster", false, "sweep the multi-host placement variants across rack sizes")
	hostsList := c.fs.String("hosts", "2,3,4", "comma-separated host counts for -cluster (per zone when -zones > 1)")
	zones := c.fs.Int("zones", 1, "zone count for -cluster: >1 runs each rack size under the two-level zone scheduler")
	workers := c.fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	if !c.parseFlags(args) {
		return 2
	}
	if *list {
		for _, n := range workload.Names() {
			fmt.Fprintln(c.stdout, n)
		}
		return 0
	}

	if *clusterSweep {
		hosts, err := kv.List(*hostsList, count)
		if err != nil {
			return c.fail(2, "bad -hosts %q: %v", *hostsList, err)
		}
		if *zones < 1 {
			return c.fail(2, "bad -zones %d", *zones)
		}
		return clusterMatrix(c, hosts, *zones, *seed, *workers)
	}

	bench, ok := workload.ByName(*benchName)
	if !ok {
		return c.fail(1, "unknown benchmark %q (try -list)", *benchName)
	}
	var mode workload.SyncMode
	switch *modeName {
	case "":
	case "spin":
		mode = workload.SyncSpinning
	case "block":
		mode = workload.SyncBlocking
	default:
		return c.fail(2, "bad -mode %q", *modeName)
	}

	levels, err := kv.List(*interList, count)
	if err != nil {
		return c.fail(2, "bad -inter %q: %v", *interList, err)
	}

	// Compute every (level, strategy) cell up front — each is an
	// isolated simulation — then print the matrix serially.
	strats := core.Strategies()
	type cell struct {
		mean float64
		err  error
	}
	cells := make([]cell, len(levels)*len(strats))
	var fns []func()
	for li, lvl := range levels {
		for si, st := range strats {
			fns = append(fns, func() {
				mean, err := sweepPoint(bench, mode, st, lvl, *vcpus, *unpinned, *seed, *runs)
				cells[li*len(strats)+si] = cell{mean: mean, err: err}
			})
		}
	}
	experiments.ParallelDo(*workers, fns)

	fmt.Fprintf(c.stdout, "%-10s", "inter")
	for _, st := range strats {
		fmt.Fprintf(c.stdout, "  %-12s", st)
	}
	fmt.Fprintln(c.stdout)
	for li, lvl := range levels {
		fmt.Fprintf(c.stdout, "%-10d", lvl)
		for si := range strats {
			cl := cells[li*len(strats)+si]
			if cl.err != nil {
				fmt.Fprintf(c.stdout, "  %-12s", "ERR")
				continue
			}
			fmt.Fprintf(c.stdout, "  %-12s", fmt.Sprintf("%.3fs", cl.mean))
		}
		fmt.Fprintln(c.stdout)
	}
	return 0
}

// count parses one non-negative -hosts/-inter list element.
func count(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n < 0 {
		err = fmt.Errorf("negative count %d", n)
	}
	return n, err
}

// clusterMatrix sweeps the experiment's placement variants over rack
// sizes: one row per host count, one column pair (p99, SLO-violation
// rate) per variant. With zones > 1 each rack size is per zone and
// every cell runs under the two-level zone scheduler and partitioned
// router.
func clusterMatrix(c *cli, hosts []int, zones int, seed uint64, workers int) int {
	variants := experiments.ClusterVariants()
	type cell struct {
		res *cluster.Result
		err error
	}
	cells := make([]cell, len(hosts)*len(variants))
	var fns []func()
	for hi, n := range hosts {
		for vi, v := range variants {
			fns = append(fns, func() {
				cfg := experiments.ClusterConfig(v, seed)
				cfg.Hosts = zones * n
				if zones > 1 {
					cfg.Topology = topology.Uniform(zones, n)
				}
				cl, err := cluster.New(cfg)
				if err != nil {
					cells[hi*len(variants)+vi] = cell{err: err}
					return
				}
				res, err := cl.Run()
				cells[hi*len(variants)+vi] = cell{res: res, err: err}
			})
		}
	}
	experiments.ParallelDo(workers, fns)

	hdr := "hosts"
	if zones > 1 {
		hdr = fmt.Sprintf("hosts/%dz", zones)
	}
	fmt.Fprintf(c.stdout, "%-8s", hdr)
	for _, v := range variants {
		fmt.Fprintf(c.stdout, "  %-24s", v.Name+" p99/slo/migr")
	}
	fmt.Fprintln(c.stdout)
	code := 0
	for hi, n := range hosts {
		fmt.Fprintf(c.stdout, "%-8d", n)
		for vi, v := range variants {
			cl := cells[hi*len(variants)+vi]
			if cl.err != nil {
				fmt.Fprintf(c.stdout, "  %-24s", "ERR")
				code = c.fail(1, "%d hosts, %s: %v", n, v.Name, cl.err)
				continue
			}
			fmt.Fprintf(c.stdout, "  %-24s", fmt.Sprintf("%.3fms/%.2f%%/%d",
				float64(cl.res.P99)/float64(sim.Millisecond), cl.res.SLORate*100, cl.res.Migrations))
		}
		fmt.Fprintln(c.stdout)
	}
	return code
}

func sweepPoint(bench workload.Benchmark, mode workload.SyncMode, strat core.Strategy, inter, vcpus int, unpinned bool, seed uint64, runs int) (float64, error) {
	var rts []float64
	for i := 0; i < runs; i++ {
		var fgPins, bgPins []int
		if !unpinned {
			fgPins = core.SeqPins(0, vcpus)
			bgPins = core.SeqPins(0, inter)
		}
		fg := core.BenchmarkVM("fg", bench, mode, vcpus, fgPins)
		fg.IRS = strat == core.StrategyIRS
		vms := []core.VMSpec{fg}
		if inter > 0 {
			vms = append(vms, core.HogVM("bg", inter, bgPins))
		}
		res, err := core.Run(core.Scenario{
			PCPUs:    vcpus,
			Strategy: strat,
			Seed:     seed + uint64(i)*7919,
			Unpinned: unpinned,
			Horizon:  1800 * sim.Second,
			VMs:      vms,
		})
		if err != nil {
			return 0, err
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
	}
	return metrics.Summarize(rts).Mean, nil
}

// runAttack runs attacker specs (semicolon-separated — specs contain
// commas) against every accounting defense: one row per (attacker,
// defense) cell, each an isolated deterministic simulation. With a
// positive -expect-overshoot it doubles as the CI gate: every
// fully-defended ("both") row must hold its attacker's obtained/fair
// ratio at or below the cap.
func runAttack(c *cli, args []string) int {
	seed := c.fs.Uint64("seed", 1, "base random seed")
	workers := c.fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	expect := c.fs.Float64("expect-overshoot", 0,
		"exit nonzero unless every fully-defended row keeps its attacker at or below this fair-share ratio")
	pos, ok := c.parse(args)
	if !ok {
		return 2
	}
	if len(pos) != 1 {
		fmt.Fprintln(c.stderr, "usage: irs attack [flags] SPEC[;SPEC...]   (e.g. tick-evade;boost-game,run=2ms)")
		c.fs.PrintDefaults()
		return 2
	}
	var specs []workload.AttackSpec
	var names []string
	for _, part := range strings.Split(pos[0], ";") {
		s, err := workload.ParseAttack(part)
		if err != nil {
			return c.fail(2, "bad attacker spec %q: %v", part, err)
		}
		if !s.Zero() {
			specs = append(specs, s)
			names = append(names, s.String())
		}
	}
	if len(specs) == 0 {
		return c.fail(2, "%q names no attackers", pos[0])
	}

	defenses := experiments.AttackDefenses()
	outs := make([]experiments.AttackOutcome, len(specs)*len(defenses))
	errs := make([]error, len(outs))
	fns := make([]func(), len(outs))
	for i := range fns {
		fns[i] = func() {
			outs[i], errs[i] = experiments.RunAttack(specs[i/len(defenses)], defenses[i%len(defenses)], *seed)
		}
	}
	experiments.ParallelDo(*workers, fns)

	tb := experiments.Table{
		ID:      "attack",
		Title:   fmt.Sprintf("attacker %q vs accounting defenses", strings.Join(names, ";")),
		Columns: experiments.AttackColumns(),
	}
	code := 0
	for i, o := range outs {
		name, d := names[i/len(defenses)], defenses[i%len(defenses)]
		if errs[i] != nil {
			code = c.fail(1, "%s/%s: %v", name, d.Name, errs[i])
			continue
		}
		row := experiments.AttackRow(o)
		// Several variants of one attack kind may share the table; the
		// full spec keeps their rows distinguishable.
		row[0] = name
		tb.Rows = append(tb.Rows, row)
		if *expect <= 0 || d.Name != "both" {
			continue
		}
		if o.FairRatio > *expect {
			code = c.fail(1, "gate FAILED: defended %s still obtains %.3fx fair share (cap %.2fx)", name, o.FairRatio, *expect)
		} else {
			c.logf("gate ok: defended %s held to %.3fx fair share (cap %.2fx)", name, o.FairRatio, *expect)
		}
	}
	fmt.Fprint(c.stdout, tb)
	fmt.Fprintln(c.stdout)
	return code
}
