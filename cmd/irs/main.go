// Command irs is the simulator's front end: one binary whose
// subcommands regenerate the paper's tables, sweep parameters, and
// drive the interference, rack and observability rigs.
//
// Usage:
//
//	irs [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <subcommand> [flags] [args]
//
//	irs sim     [-runs N] [-seed S] [-workers N] [-v] list | all | <experiment-id>...
//	irs sweep   [-bench B] [-inter 0,1,2,4] [-mode spin|block] [-vcpus 4] [-unpinned] [-runs N]
//	irs sweep   -cluster [-hosts 2,3,4] [-zones 1]
//	irs sweep   -list
//	irs attack  SPEC[;SPEC...] [-expect-overshoot 1.05] [-seed S] [-workers N]
//	irs report  [-bench B] [-strategy vanilla,irs] [-inter 1] [-prom F] [-csv F] [-tracejson F]
//	            [-at 1s] [-window 100ms] [-sample 10ms] [-faults drop-sa=0.1] [-fault-seed 0]
//	irs trace   [-bench B] [-strategy irs] [-inter 1] [-at 1s] [-window 100ms] [-kinds sa,migrate]
//	irs blame   [-strategy vanilla,irs] [-top 3] [-duration 2s] [-arrival 500µs] [-perfetto F] [-csv F]
//	irs watch   [-scenario bully|quiet] [-duration 10s] [-rules R] [-interval 100ms]
//	            [-dump PREFIX] [-expect-top bully]
//	irs load    -variant V | -spec S | -file F [-expect 1.0] [-v]
//	irs why     [-variant 2z8h-outage | -spec S | -file F] [-kinds ctl] [-q QUERY] [-limit 20]
//	            [-top N] [-expect TRAIL] [-json F] [-perfetto F]
//
// Flags and arguments may interleave. Every output-file flag takes "-"
// for stdout. Tables and reports go to stdout and are byte-identical
// for a given seed (wall times and progress go to stderr), so output
// can be diffed across runs and against the golden corpus. Exit status
// is 2 for usage errors (bad flags, specs, names), 1 when a run or a
// gate (-expect, -expect-top, -expect-overshoot) fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// commands maps each subcommand to its body. A body declares its flags
// on c.fs, parses args with c.parse or c.parseFlags, and returns the
// exit status.
var commands = map[string]func(c *cli, args []string) int{
	"sim":    runSim,
	"sweep":  runSweep,
	"attack": runAttack,
	"report": runReport,
	"trace":  runTrace,
	"blame":  runBlame,
	"watch":  runWatch,
	"load":   runLoad,
	"why":    runWhy,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the subcommand to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file when the subcommand exits")
	fs.Usage = func() {
		names := make([]string, 0, len(commands))
		for name := range commands {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "usage: irs [flags] <subcommand> [flags] [args]\nsubcommands: %s\n", strings.Join(names, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	name := fs.Arg(0)
	body, ok := commands[name]
	if !ok {
		fmt.Fprintf(stderr, "irs: unknown subcommand %q\n", name)
		fs.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "irs: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "irs: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC()
			if err := writeOut(*memprofile, stdout, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(stderr, "irs: -memprofile: %v\n", err)
			}
		}()
	}

	c := &cli{name: "irs " + name, stdout: stdout, stderr: stderr,
		fs: flag.NewFlagSet("irs "+name, flag.ContinueOnError)}
	c.fs.SetOutput(stderr)
	return body(c, fs.Args()[1:])
}

// cli is one subcommand invocation: its name (the prefix of every
// stderr line), its output streams, and its flag set.
type cli struct {
	name           string
	stdout, stderr io.Writer
	fs             *flag.FlagSet
}

// logf writes one "irs <sub>: ..." line to stderr.
func (c *cli) logf(format string, a ...any) {
	fmt.Fprintf(c.stderr, c.name+": "+format+"\n", a...)
}

// fail reports an error line and returns code, for "return c.fail(...)".
func (c *cli) fail(code int, format string, a ...any) int {
	c.logf(format, a...)
	return code
}

// parse parses c's flags from args and returns the positional
// arguments. Flags may follow positional arguments ("irs attack
// tick-evade -expect-overshoot 1.05"); everything after "--" is
// positional. It returns false after a flag error, which the flag
// package has already reported.
func (c *cli) parse(args []string) ([]string, bool) {
	var pos []string
	for {
		if err := c.fs.Parse(args); err != nil {
			return nil, false
		}
		rest := c.fs.Args()
		if len(rest) == 0 {
			return pos, true
		}
		if len(rest) < len(args) && args[len(args)-len(rest)-1] == "--" {
			return append(pos, rest...), true
		}
		pos = append(pos, rest[0])
		args = rest[1:]
	}
}

// parseFlags is parse for subcommands that take no positional
// arguments: a stray argument is a usage error.
func (c *cli) parseFlags(args []string) bool {
	pos, ok := c.parse(args)
	if ok && len(pos) > 0 {
		c.logf("unexpected argument %q", pos[0])
		return false
	}
	return ok
}

// writeOut writes one artifact to path: "-" writes it to stdout,
// anything else is created (or truncated), written and closed.
func writeOut(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
