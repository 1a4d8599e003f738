package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/hypervisor"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/watch"
)

// runBlame runs the bully workload with causal span tracing enabled and
// prints, per strategy, the end-to-end latency blame breakdown: which
// scheduler pathology (preemption wait, LHP spinning, SA handshakes,
// queueing, migration downtime, ...) owns what share of the
// p50/p99/p99.9 request cohorts, plus the critical paths of the slowest
// requests. -perfetto writes the slowest requests' nested span trees as
// a Chrome/Perfetto trace, -csv the per-band category breakdown.
func runBlame(c *cli, args []string) int {
	strategies := c.fs.String("strategy", "vanilla,irs", "comma-separated: vanilla,ple,relaxed-co,irs,strict-co")
	seed := c.fs.Uint64("seed", 1, "random seed")
	top := c.fs.Int("top", 3, "slowest requests to show per strategy")
	duration := c.fs.Duration("duration", time.Duration(experiments.DefaultBlameDuration), "request-stream duration (virtual time)")
	arrival := c.fs.Duration("arrival", time.Duration(experiments.DefaultBlameArrival), "mean request inter-arrival time")
	perfetto := c.fs.String("perfetto", "", "write the slowest requests' span trees to this file (Chrome/Perfetto trace JSON)")
	csvPath := c.fs.String("csv", "", "write the per-band blame breakdown to this file as CSV")
	if !c.parseFlags(args) {
		return 2
	}
	strats, err := kv.List(*strategies, hypervisor.ParseStrategy)
	if err != nil {
		return c.fail(2, "-strategy: %v", err)
	}

	var sets []span.TrackSet
	var csvRows [][]string
	for _, strat := range strats {
		name := strat.String()
		spans, err := experiments.BlameRun(strat, *seed, sim.Duration(*duration), sim.Duration(*arrival))
		if err != nil {
			return c.fail(1, "%s: %v", name, err)
		}
		an := span.Analyze(spans, obs.DefaultSketchAlpha)
		printAnalysis(c.stdout, name, an, *top)
		sets = append(sets, span.TrackSet{Name: name, Spans: an.Slowest(*top)})
		csvRows = append(csvRows, blameCSVRows(name, an)...)
	}

	for _, exp := range []struct {
		path, done string
		write      func(io.Writer) error
	}{
		{*csvPath, "wrote blame breakdown CSV to %s\n",
			func(w io.Writer) error { return obs.WriteCSVTable(w, blameCSVHeader(), csvRows) }},
		{*perfetto, "wrote perfetto span trace to %s (open in ui.perfetto.dev)\n",
			func(w io.Writer) error { return span.WriteChromeSpans(w, sets) }},
	} {
		if exp.path == "" {
			continue
		}
		if err := writeOut(exp.path, c.stdout, exp.write); err != nil {
			return c.fail(1, "%v", err)
		}
		if exp.path != "-" {
			fmt.Fprintf(c.stdout, exp.done, exp.path)
		}
	}
	return 0
}

// printAnalysis renders one strategy's blame breakdown.
func printAnalysis(w io.Writer, name string, an *span.Analysis, top int) {
	fmt.Fprintf(w, "== %s: %d requests, p50 %v p99 %v p99.9 %v ==\n",
		name, an.Requests,
		time.Duration(an.Wall.Percentile(50)),
		time.Duration(an.Wall.Percentile(99)),
		time.Duration(an.Wall.Percentile(99.9)))
	fmt.Fprintf(w, "conservation: %d violations, max error %v\n", an.Violations, time.Duration(an.MaxError))
	for _, b := range an.Bands {
		fmt.Fprintf(w, "  %-6s %5d reqs  %s\n", b.Label, b.Requests, shareLine(b.Shares, 5))
	}
	if top <= 0 {
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "slowest %d requests:\n", top)
	for _, sp := range an.Slowest(top) {
		fmt.Fprintf(w, "  #%d wall %v: %s\n", sp.ID, time.Duration(sp.Wall()), shareLine(sp.TopContributors(4), 4))
		fmt.Fprintf(w, "    %s\n", criticalPath(sp, 12))
	}
	fmt.Fprintln(w)
}

// shareLine renders the top-k category shares as "cat pct (time)".
func shareLine(shares []span.CategoryShare, k int) string {
	var parts []string
	for i, s := range shares {
		if i >= k {
			parts = append(parts, fmt.Sprintf("(+%d more)", len(shares)-k))
			break
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%% (%v)", s.Cat, s.Share*100, time.Duration(s.Time)))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}

// criticalPath renders the span's segment timeline, phase by phase. A
// request span is single-threaded, so the whole timeline IS the
// critical path; long chains are truncated to maxSegs segments.
func criticalPath(sp *span.Span, maxSegs int) string {
	var b strings.Builder
	segs := 0
	for pi, ph := range sp.Phases {
		if pi > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s[", ph.Name)
		for si, seg := range ph.Segments {
			if segs >= maxSegs {
				fmt.Fprintf(&b, " …+%d", sp.SegmentCount()-segs)
				segs = sp.SegmentCount()
				break
			}
			if si > 0 {
				b.WriteString(" → ")
			}
			fmt.Fprintf(&b, "%s %v", seg.Cat, time.Duration(seg.Dur()))
			segs++
		}
		b.WriteByte(']')
		if segs >= maxSegs && pi < len(sp.Phases)-1 {
			fmt.Fprintf(&b, " …")
			break
		}
	}
	return b.String()
}

// blameCSVHeader names the machine-readable breakdown's columns.
func blameCSVHeader() []string {
	return []string{"strategy", "band", "requests", "band_wall_ns",
		"category", "time_ns", "share"}
}

// blameCSVRows flattens one strategy's per-band category breakdown
// into CSV rows: one row per (band, category) with the time and share.
func blameCSVRows(strategy string, an *span.Analysis) [][]string {
	var rows [][]string
	for _, b := range an.Bands {
		for _, sh := range b.Shares {
			rows = append(rows, []string{
				strategy,
				b.Label,
				fmt.Sprintf("%d", b.Requests),
				fmt.Sprintf("%d", int64(b.Wall)),
				sh.Cat.String(),
				fmt.Sprintf("%d", int64(sh.Time)),
				fmt.Sprintf("%.6f", sh.Share),
			})
		}
	}
	return rows
}

// runWatch runs the watchdog rig (a sensitive server ambushed by a
// late-arriving CPU bully) with the online SLO watchdog attached and
// prints the alerts as they fire, each with its noisy-neighbor
// attribution ranking. -dump writes the first incident bundle: a
// self-contained JSON forensics file plus a Chrome/Perfetto trace of
// the slowest spans around the alert.
func runWatch(c *cli, args []string) int {
	scenario := c.fs.String("scenario", "bully", "rig variant: bully | quiet")
	seed := c.fs.Uint64("seed", 1, "random seed")
	duration := c.fs.Duration("duration", time.Duration(experiments.DefaultWatchDuration), "request-stream duration (virtual time)")
	rulesFlag := c.fs.String("rules", experiments.DefaultWatchRules, "burn-rate alert rules (';'-separated name:budget=F,fast=D,slow=D,burn=F)")
	interval := c.fs.Duration("interval", time.Duration(experiments.DefaultWatchInterval), "watch epoch cadence / window width")
	dump := c.fs.String("dump", "", "write the first incident bundle to <prefix>.json and <prefix>.trace.json")
	expectTop := c.fs.String("expect-top", "", "exit nonzero unless this VM is the top-ranked aggressor (CI smoke)")
	if !c.parseFlags(args) {
		return 2
	}

	v, ok := experiments.WatchVariantByName(*scenario)
	if !ok {
		return c.fail(2, "unknown scenario %q (valid: bully, quiet)", *scenario)
	}
	rules, err := watch.ParseRules(*rulesFlag)
	if err != nil {
		return c.fail(2, "bad -rules: %v", err)
	}
	if len(rules) == 0 {
		return c.fail(2, "-rules parsed to an empty rule set")
	}

	cfg := experiments.WatchConfig(v, *seed, sim.Duration(*duration), rules, sim.Duration(*interval))
	cl, err := cluster.New(cfg)
	if err != nil {
		return c.fail(1, "%v", err)
	}
	w := cl.Watcher()
	w.OnAlert = func(a watch.Alert, ranked []watch.RankedAggressor) {
		fmt.Fprintf(c.stdout, "ALERT %s\n", a)
		for i, r := range ranked {
			fmt.Fprintf(c.stdout, "  #%d %s\n", i+1, r)
		}
	}
	res, err := cl.Run()
	if err != nil {
		return c.fail(1, "%v", err)
	}

	alerts := w.Alerts()
	incidents := w.Recorder().Incidents()
	fmt.Fprintf(c.stdout, "\n== %s: served %d/%d, slo-viol %d (%.2f%%), alerts %d, incidents %d ==\n",
		v.Name, res.Served, res.Generated, res.SLOViolations, res.SLORate*100,
		len(alerts), len(incidents))
	if len(alerts) > 0 {
		fmt.Fprintf(c.stdout, "first alert at %v (%v after the bully window opens)\n",
			time.Duration(alerts[0].At), time.Duration(alerts[0].At-experiments.WatchBullyArrive))
	}
	ranked, _ := w.Rankings()
	for i, r := range ranked {
		fmt.Fprintf(c.stdout, "aggressor #%d: %s\n", i+1, r)
	}

	if *dump != "" {
		if len(incidents) == 0 {
			return c.fail(1, "-dump requested but no incident was captured")
		}
		jsonPath, tracePath := *dump+".json", *dump+".trace.json"
		if err := writeOut(jsonPath, c.stdout, incidents[0].WriteJSON); err != nil {
			return c.fail(1, "%v", err)
		}
		if err := writeOut(tracePath, c.stdout, incidents[0].WriteTrace); err != nil {
			return c.fail(1, "%v", err)
		}
		fmt.Fprintf(c.stdout, "wrote incident bundle to %s and %s (open the trace in ui.perfetto.dev)\n",
			jsonPath, tracePath)
	}

	if *expectTop != "" {
		if len(alerts) == 0 {
			return c.fail(1, "expected an alert naming %q, none fired", *expectTop)
		}
		if len(ranked) == 0 || ranked[0].Aggressor != *expectTop {
			got := "nothing"
			if len(ranked) > 0 {
				got = ranked[0].Aggressor
			}
			return c.fail(1, "top aggressor is %s, expected %q", got, *expectTop)
		}
	}
	return 0
}
