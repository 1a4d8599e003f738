// Command irsweep runs ad-hoc parameter sweeps. The default dimension
// is one benchmark against a range of interference levels under all
// four scheduling strategies; -cluster instead sweeps the multi-host
// placement variants (first-fit, least-loaded, interference-aware ±
// IRS) across rack sizes. Every cell is an isolated deterministic
// simulation fanned out across worker goroutines, so the printed table
// is identical with and without -parallel.
//
// Usage:
//
//	irsweep -bench streamcluster -inter 0,1,2,4 [-mode spin|block] [-vcpus 4]
//	        [-unpinned] [-seed S] [-runs N] [-parallel] [-workers N]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	irsweep -cluster [-hosts 2,3,4] [-zones 1] [-seed S] [-parallel] [-workers N]
//	irsweep -attack "tick-evade;boost-game,run=2ms" [-seed S] [-parallel] [-workers N]
//	irsweep -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchName := fs.String("bench", "streamcluster", "benchmark name (see -list)")
	interList := fs.String("inter", "0,1,2,4", "comma-separated interference levels")
	modeName := fs.String("mode", "", "override wait policy: spin or block")
	vcpus := fs.Int("vcpus", 4, "foreground vCPUs (== pCPUs)")
	unpinned := fs.Bool("unpinned", false, "leave vCPUs unpinned (stacking setup)")
	seed := fs.Uint64("seed", 1, "base random seed")
	runs := fs.Int("runs", 3, "runs per data point")
	list := fs.Bool("list", false, "list benchmark names and exit")
	clusterSweep := fs.Bool("cluster", false, "sweep the multi-host placement variants across rack sizes")
	hostsList := fs.String("hosts", "2,3,4", "comma-separated host counts for -cluster (per zone when -zones > 1)")
	zones := fs.Int("zones", 1, "zone count for -cluster: >1 runs each rack size under the two-level zone scheduler")
	attackList := fs.String("attack", "", "semicolon-separated attacker specs to sweep against every accounting defense")
	parallel := fs.Bool("parallel", true, "fan sweep cells across worker goroutines")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, n := range workload.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "irsweep: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "irsweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "irsweep: -memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "irsweep: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	if !*parallel {
		nWorkers = 1
	}

	if *clusterSweep {
		hosts, ok := parseIntList(*hostsList)
		if !ok || len(hosts) == 0 {
			fmt.Fprintf(stderr, "irsweep: bad -hosts %q\n", *hostsList)
			return 2
		}
		if *zones < 1 {
			fmt.Fprintf(stderr, "irsweep: bad -zones %d\n", *zones)
			return 2
		}
		return clusterMatrix(stdout, stderr, hosts, *zones, *seed, nWorkers)
	}

	if *attackList != "" {
		var specs []workload.AttackSpec
		for _, part := range strings.Split(*attackList, ";") {
			s, err := workload.ParseAttack(part)
			if err != nil {
				fmt.Fprintf(stderr, "irsweep: bad -attack spec %q: %v\n", part, err)
				return 2
			}
			if s.Zero() {
				continue
			}
			specs = append(specs, s)
		}
		if len(specs) == 0 {
			fmt.Fprintf(stderr, "irsweep: -attack %q names no attackers\n", *attackList)
			return 2
		}
		return attackMatrix(stdout, stderr, specs, *seed, nWorkers)
	}

	bench, ok := workload.ByName(*benchName)
	if !ok {
		fmt.Fprintf(stderr, "irsweep: unknown benchmark %q (try -list)\n", *benchName)
		return 1
	}
	var mode workload.SyncMode
	switch *modeName {
	case "":
	case "spin":
		mode = workload.SyncSpinning
	case "block":
		mode = workload.SyncBlocking
	default:
		fmt.Fprintf(stderr, "irsweep: bad -mode %q\n", *modeName)
		return 2
	}

	levels, ok := parseIntList(*interList)
	if !ok {
		fmt.Fprintf(stderr, "irsweep: bad -inter %q\n", *interList)
		return 2
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
			li, si, lvl, st := li, si, lvl, st
			fns = append(fns, func() {
				mean, err := sweepPoint(bench, mode, st, lvl, *vcpus, *unpinned, *seed, *runs)
				cells[li*len(strats)+si] = cell{mean: mean, err: err}
			})
		}
	}
	experiments.ParallelDo(nWorkers, fns)

	fmt.Fprintf(stdout, "%-10s", "inter")
	for _, st := range strats {
		fmt.Fprintf(stdout, "  %-12s", st)
	}
	fmt.Fprintln(stdout)
	for li, lvl := range levels {
		fmt.Fprintf(stdout, "%-10d", lvl)
		for si := range strats {
			c := cells[li*len(strats)+si]
			if c.err != nil {
				fmt.Fprintf(stdout, "  %-12s", "ERR")
				continue
			}
			fmt.Fprintf(stdout, "  %-12s", fmt.Sprintf("%.3fs", c.mean))
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// parseIntList parses a comma-separated list of non-negative ints.
func parseIntList(s string) ([]int, bool) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, false
		}
		out = append(out, n)
	}
	return out, true
}

// clusterMatrix sweeps the experiment's placement variants over rack
// sizes: one row per host count, one column pair (p99, SLO-violation
// rate) per variant. With zones > 1 each rack size is per zone and
// every cell runs under the two-level zone scheduler and partitioned
// router.
func clusterMatrix(stdout, stderr io.Writer, hosts []int, zones int, seed uint64, nWorkers int) int {
	variants := experiments.ClusterVariants()
	type cell struct {
		p99  sim.Time
		slo  float64
		migr int64
		err  error
	}
	cells := make([]cell, len(hosts)*len(variants))
	var fns []func()
	for hi, n := range hosts {
		for vi, v := range variants {
			hi, vi, n, v := hi, vi, n, v
			fns = append(fns, func() {
				cfg := experiments.ClusterConfig(v, seed)
				cfg.Hosts = zones * n
				if zones > 1 {
					cfg.Topology = topology.Uniform(zones, n)
				}
				c, err := cluster.New(cfg)
				if err != nil {
					cells[hi*len(variants)+vi] = cell{err: err}
					return
				}
				res, err := c.Run()
				if err != nil {
					cells[hi*len(variants)+vi] = cell{err: err}
					return
				}
				cells[hi*len(variants)+vi] = cell{p99: res.P99, slo: res.SLORate, migr: res.Migrations}
			})
		}
	}
	experiments.ParallelDo(nWorkers, fns)

	hdr := "hosts"
	if zones > 1 {
		hdr = fmt.Sprintf("hosts/%dz", zones)
	}
	fmt.Fprintf(stdout, "%-8s", hdr)
	for _, v := range variants {
		fmt.Fprintf(stdout, "  %-24s", v.Name+" p99/slo/migr")
	}
	fmt.Fprintln(stdout)
	bad := 0
	for hi, n := range hosts {
		fmt.Fprintf(stdout, "%-8d", n)
		for vi, v := range variants {
			c := cells[hi*len(variants)+vi]
			if c.err != nil {
				fmt.Fprintf(stdout, "  %-24s", "ERR")
				fmt.Fprintf(stderr, "irsweep: %d hosts, %s: %v\n", n, v.Name, c.err)
				bad++
				continue
			}
			fmt.Fprintf(stdout, "  %-24s", fmt.Sprintf("%.3fms/%.2f%%/%d",
				float64(c.p99)/float64(sim.Millisecond), c.slo*100, c.migr))
		}
		fmt.Fprintln(stdout)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// attackMatrix sweeps attacker specs against every accounting defense:
// one row per (attacker, defense) cell, in spec order then defense
// order, each cell an isolated deterministic simulation.
func attackMatrix(stdout, stderr io.Writer, specs []workload.AttackSpec, seed uint64, nWorkers int) int {
	defenses := experiments.AttackDefenses()
	type cell struct {
		out experiments.AttackOutcome
		err error
	}
	cells := make([]cell, len(specs)*len(defenses))
	var fns []func()
	for si, spec := range specs {
		for di, d := range defenses {
			si, di, spec, d := si, di, spec, d
			fns = append(fns, func() {
				out, err := experiments.RunAttack(spec, d, seed)
				cells[si*len(defenses)+di] = cell{out: out, err: err}
			})
		}
	}
	experiments.ParallelDo(nWorkers, fns)

	tb := experiments.Table{
		ID:      "attack-sweep",
		Title:   "attacker specs vs accounting defenses",
		Columns: experiments.AttackColumns(),
	}
	bad := 0
	for si, spec := range specs {
		for di, d := range defenses {
			c := cells[si*len(defenses)+di]
			if c.err != nil {
				fmt.Fprintf(stderr, "irsweep: attack %q/%s: %v\n", spec, d.Name, c.err)
				bad++
				continue
			}
			row := experiments.AttackRow(c.out)
			// The sweep may carry several variants of one attack kind;
			// show the full spec so rows stay distinguishable.
			row[0] = spec.String()
			tb.Rows = append(tb.Rows, row)
		}
	}
	fmt.Fprint(stdout, tb)
	if bad > 0 {
		return 1
	}
	return 0
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
