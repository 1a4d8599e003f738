// Command irsim regenerates the paper's tables and figures on the
// simulator.
//
// Usage:
//
//	irsim [-runs N] [-seed S] [-parallel] [-workers N] [-v] list
//	irsim [-runs N] [-seed S] [-v] all
//	irsim [-runs N] [-seed S] [-v] fig5 fig6 ...
//	irsim [-experiment cluster] [-runs N] [-seed S]
//	irsim [-cpuprofile cpu.pprof] [-memprofile mem.pprof] all
//	irsim -attack tick-evade [-expect-overshoot 1.05] [-seed S]
//
// Tables go to stdout and are byte-identical for a given seed (wall
// times and progress go to stderr), so output can be diffed across
// runs and against the golden corpus.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 3, "simulated runs per data point (paper: 5)")
	seed := fs.Uint64("seed", 1, "base random seed")
	verbose := fs.Bool("v", false, "log each measurement")
	parallel := fs.Bool("parallel", true, "fan each figure's simulation matrix across worker goroutines")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	lookahead := fs.Duration("lookahead", 0, "conservative window width for cluster runs (0 = default 250µs; changing it changes results)")
	experiment := fs.String("experiment", "", "experiment id to run (alias for the positional form)")
	attack := fs.String("attack", "", "attacker spec (e.g. tick-evade,margin=500us); runs it against every accounting defense")
	expectOvershoot := fs.Float64("expect-overshoot", 0,
		"with -attack: exit nonzero unless the fully-defended row keeps the attacker at or below this fair-share ratio")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ids := fs.Args()
	if *experiment != "" {
		ids = append([]string{*experiment}, ids...)
	}
	if *attack != "" {
		if len(ids) > 0 {
			fmt.Fprintln(stderr, "irsim: -attack does not combine with experiment ids")
			return 2
		}
		return attackGate(*attack, *expectOvershoot, *seed, stdout, stderr)
	}
	if len(ids) == 0 {
		usage(fs, stderr)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "irsim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "irsim: -cpuprofile: %v\n", err)
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
				fmt.Fprintf(stderr, "irsim: -memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "irsim: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	opt := experiments.Options{
		Runs: *runs, Seed: *seed, Workers: *workers,
		Lookahead: sim.Duration(*lookahead),
	}
	if !*parallel {
		opt.Workers = 1
	}
	if *verbose {
		opt.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		}
	}

	if len(ids) == 1 {
		switch strings.ToLower(ids[0]) {
		case "list":
			for _, id := range experiments.IDs() {
				fmt.Fprintln(stdout, id)
			}
			return 0
		case "all":
			ids = experiments.IDs()
		}
	}

	bad := 0
	for _, id := range ids {
		start := time.Now()
		tb, ok := experiments.ByID(id, opt)
		if !ok {
			fmt.Fprintf(stderr, "irsim: unknown experiment %q (try: irsim list)\n", id)
			bad++
			continue
		}
		fmt.Fprint(stdout, tb)
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "irsim: %s took %.1fs wall\n", id, time.Since(start).Seconds())
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func usage(fs *flag.FlagSet, stderr io.Writer) {
	fmt.Fprintln(stderr, "usage: irsim [flags] list | all | <experiment-id>...")
	fs.PrintDefaults()
}

// attackGate runs one attacker spec against every accounting defense
// and prints the resulting table. With a positive expect threshold it
// doubles as the CI smoke gate: the fully-defended ("both") row must
// keep the attacker's obtained/fair ratio at or below the threshold.
func attackGate(spec string, expect float64, seed uint64, stdout, stderr io.Writer) int {
	as, err := workload.ParseAttack(spec)
	if err != nil {
		fmt.Fprintf(stderr, "irsim: -attack: %v\n", err)
		return 2
	}
	if as.Zero() {
		fmt.Fprintln(stderr, "irsim: -attack: spec names no attack kind")
		return 2
	}
	defenses := experiments.AttackDefenses()
	outs := make([]experiments.AttackOutcome, len(defenses))
	errs := make([]error, len(defenses))
	var fns []func()
	for i, d := range defenses {
		i, d := i, d
		fns = append(fns, func() {
			outs[i], errs[i] = experiments.RunAttack(as, d, seed)
		})
	}
	experiments.ParallelDo(len(fns), fns)

	tb := experiments.Table{
		ID:      "attack",
		Title:   fmt.Sprintf("attacker %q vs accounting defenses", as),
		Columns: experiments.AttackColumns(),
	}
	var defended *experiments.AttackOutcome
	for i, d := range defenses {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "irsim: attack %s/%s: %v\n", as.Kind, d.Name, errs[i])
			return 1
		}
		tb.Rows = append(tb.Rows, experiments.AttackRow(outs[i]))
		if d.Name == "both" {
			defended = &outs[i]
		}
	}
	fmt.Fprint(stdout, tb)
	fmt.Fprintln(stdout)

	if expect > 0 {
		if defended == nil {
			fmt.Fprintln(stderr, "irsim: attack gate: no fully-defended row")
			return 1
		}
		if defended.FairRatio > expect {
			fmt.Fprintf(stderr, "irsim: attack gate FAILED: defended %s still obtains %.3fx fair share (cap %.2fx)\n",
				as.Kind, defended.FairRatio, expect)
			return 1
		}
		fmt.Fprintf(stderr, "irsim: attack gate ok: defended %s held to %.3fx fair share (cap %.2fx)\n",
			as.Kind, defended.FairRatio, expect)
	}
	return 0
}
