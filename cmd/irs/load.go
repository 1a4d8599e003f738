package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/experiments"
	"repro/internal/topology"
)

// specFlags select the cluster load spec that load and why run: a
// built-in variant, an inline spec, or a spec file (at most one), with
// -list printing the built-in variants.
type specFlags struct {
	variant, spec, file *string
	list                *bool
	def                 string // variant used when no source is given ("" = one is required)
}

func addSpecFlags(fs *flag.FlagSet, def string) specFlags {
	help := "built-in load spec by name (see -list)"
	if def != "" {
		help += "; default " + def
	}
	return specFlags{
		variant: fs.String("variant", "", help),
		spec:    fs.String("spec", "", "inline load spec (topology.ParseLoadSpec syntax)"),
		file:    fs.String("file", "", "read the load spec from a file"),
		list:    fs.Bool("list", false, "list built-in variants and exit"),
		def:     def,
	}
}

// printList prints the built-in variants for -list.
func printList(w io.Writer) {
	for _, v := range experiments.ScaleVariants() {
		fmt.Fprintf(w, "%-14s %s\n", v.Name, v.Spec)
	}
}

// resolve parses the selected spec and returns it with its display
// name: the variant's name, "spec" for an inline spec, or the file's
// path.
func (f specFlags) resolve() (string, topology.LoadSpec, error) {
	set := 0
	for _, s := range []string{*f.variant, *f.spec, *f.file} {
		if s != "" {
			set++
		}
	}
	if set > 1 || set == 0 && f.def == "" {
		return "", topology.LoadSpec{}, errors.New("exactly one of -variant, -spec, -file must be given")
	}
	text, name := *f.spec, "spec"
	switch {
	case *f.file != "":
		b, err := os.ReadFile(*f.file)
		if err != nil {
			return "", topology.LoadSpec{}, err
		}
		text, name = string(b), *f.file
	case text == "":
		name = *f.variant
		if name == "" {
			name = f.def
		}
		v, ok := experiments.ScaleVariantByName(name)
		if !ok {
			return "", topology.LoadSpec{}, fmt.Errorf("unknown variant %q (try -list)", name)
		}
		text = v.Spec
	}
	spec, err := topology.ParseLoadSpec(text)
	return name, spec, err
}

// runLoad drives the multi-rack control plane with a declarative
// cluster-load spec — zones and hosts, arrival ramps or a diurnal
// curve, tenant mix, zone outages, burn-rate alerting, the replica
// autoscaler — and prints the end-to-end outcome: tail latency, SLO
// burn per phase, failover traffic, scale events. -expect gates the
// post-recovery SLO-violation rate for CI.
func runLoad(c *cli, args []string) int {
	sf := addSpecFlags(c.fs, "")
	seed := c.fs.Uint64("seed", 1, "random seed")
	expect := c.fs.Float64("expect", -1, "fail unless the post-recovery SLO-violation rate is below this percentage")
	verbose := c.fs.Bool("v", false, "echo the parsed spec before running")
	if !c.parseFlags(args) {
		return 2
	}
	if *sf.list {
		printList(c.stdout)
		return 0
	}
	name, spec, err := sf.resolve()
	if err != nil {
		return c.fail(2, "%v", err)
	}
	if *verbose {
		fmt.Fprintf(c.stdout, "spec: %s\n", spec.String())
	}

	cfg, err := experiments.ScaleConfig(spec, *seed)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return c.fail(1, "%v", err)
	}
	res, err := cl.Run()
	if err != nil {
		return c.fail(1, "%v", err)
	}

	w := c.stdout
	fmt.Fprintf(w, "== irs load %s: %s ==\n", name, spec.Topology())
	fmt.Fprintf(w, "served   %d/%d  p50 %v  p99 %v  slo-viol %d (%.2f%%)\n",
		res.Served, res.Generated, time.Duration(res.P50), time.Duration(res.P99),
		res.SLOViolations, res.SLORate*100)
	fmt.Fprintf(w, "zones    %d  outages %d  failover %d  alerts %d  migrations %d\n",
		res.Zones, res.ZoneOutages, res.Failover, res.Alerts, res.Migrations)
	fmt.Fprintf(w, "replicas %d→%d  scale +%d/-%d  invariant-violations %d\n",
		spec.ServersPerZone*spec.Zones, res.Replicas, res.ScaleUps, res.ScaleDowns, res.Violations)
	// An outage spec splits the run into three SLO phases.
	outage := len(res.Phases) == 3
	if outage {
		for i, label := range []string{"pre-outage", "outage+settle", "recovered"} {
			p := res.Phases[i]
			fmt.Fprintf(w, "phase %-13s served %6d  slo-viol %5d (%.2f%%)\n",
				label, p.Served, p.Violations, p.Rate*100)
		}
	}

	if res.Unserved != 0 {
		return c.fail(1, "%d of %d requests unserved", res.Unserved, res.Generated)
	}
	if res.Violations != 0 {
		return c.fail(1, "%d invariant violations", res.Violations)
	}
	if *expect >= 0 {
		if !outage {
			return c.fail(1, "-expect set but the spec has no outage (no recovery phase to gate)")
		}
		rate := res.Phases[2].Rate * 100
		if rate >= *expect {
			return c.fail(1, "recovery SLO-violation rate %.2f%% is not below the -expect gate %.2f%%", rate, *expect)
		}
		fmt.Fprintf(w, "expect gate: recovery slo-viol %.2f%% < %.2f%% — ok\n", rate, *expect)
	}
	return 0
}

// runWhy answers "why did the scheduler do that?" for a cluster run: it
// executes a load spec with the decision audit log attached, prints the
// incident's decision trail, and lets you interrogate the full log with
// a filter query, rank the closest calls (smallest winning margins —
// where the schedule nearly went the other way), and export the records
// as JSON or a Perfetto trace that lines up with the span tracer's
// timeline. -expect gates CI on the exact trail.
func runWhy(c *cli, args []string) int {
	sf := addSpecFlags(c.fs, "2z8h-outage")
	seed := c.fs.Uint64("seed", 1, "random seed")
	kindsFlag := c.fs.String("kinds", "ctl", "decision kinds to record: ctl, all, or a comma list (e.g. place,route)")
	query := c.fs.String("q", "", "print records matching this filter query (e.g. 'kind=place vm=srv0 t>6s')")
	limit := c.fs.Int("limit", 20, "cap on printed query records (0 = all)")
	top := c.fs.Int("top", 0, "print the N closest calls: scored decisions with the smallest winning margin")
	expect := c.fs.String("expect", "", "fail unless the decision trail is exactly this comma-separated step list")
	jsonOut := c.fs.String("json", "", "write the matched records as a JSON bundle to this file (- for stdout)")
	perfetto := c.fs.String("perfetto", "", "write the matched records as a Perfetto/Chrome trace to this file (- for stdout)")
	if !c.parseFlags(args) {
		return 2
	}
	if *sf.list {
		printList(c.stdout)
		return 0
	}
	name, spec, err := sf.resolve()
	if err != nil {
		return c.fail(2, "%v", err)
	}
	kinds, err := decision.ParseKinds(*kindsFlag)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	q, err := decision.ParseQuery(*query)
	if err != nil {
		return c.fail(2, "%v", err)
	}

	cl, err := experiments.RunWhy(spec, kinds, *seed)
	if err != nil {
		return c.fail(1, "%v", err)
	}
	log := cl.Decisions()
	recs := log.Records()

	fmt.Fprintf(c.stdout, "== irs why %s: %d decisions (%s, dropped %d) ==\n",
		name, len(recs), decision.CountsString(recs), log.Dropped())
	trail := decision.Trail(recs)
	for _, step := range trail {
		fmt.Fprintf(c.stdout, "trail %-9s %s\n", step.Label, recLine(&step.Rec))
	}

	if *query != "" {
		matched := decision.Filter(recs, q)
		fmt.Fprintf(c.stdout, "query %q: %d of %d records\n", q.String(), len(matched), len(recs))
		printRecs(c.stdout, matched, *limit)
	}
	if *top > 0 {
		calls := decision.ClosestCalls(decision.Filter(recs, q), *top)
		fmt.Fprintf(c.stdout, "closest calls (top %d by winning margin):\n", *top)
		printRecs(c.stdout, calls, 0)
	}

	for _, exp := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*jsonOut, func(w io.Writer) error { return decision.WriteJSON(w, decision.Filter(recs, q), log.Dropped()) }},
		{*perfetto, func(w io.Writer) error { return decision.WriteChromeTrace(w, decision.Filter(recs, q)) }},
	} {
		if exp.path == "" {
			continue
		}
		if err := writeOut(exp.path, c.stdout, exp.write); err != nil {
			return c.fail(1, "%v", err)
		}
		if exp.path != "-" {
			fmt.Fprintf(c.stdout, "wrote %s\n", exp.path)
		}
	}

	if *expect != "" {
		got := decision.TrailString(trail)
		if got != *expect {
			return c.fail(1, "decision trail %q does not match -expect %q", got, *expect)
		}
		fmt.Fprintf(c.stdout, "expect gate: trail %s — ok\n", got)
	}
	return 0
}

// recLine renders one decision record as a single line.
func recLine(r *decision.Record) string {
	margin := ""
	if m, ok := r.Margin(); ok {
		margin = fmt.Sprintf(" margin=%.3f", m)
	}
	return fmt.Sprintf("t=%-9s %-9s %-5s %s -> %s%s  %s",
		r.At, r.Kind, r.Chooser, r.Subject, r.Winner, margin, r.Detail.String())
}

// printRecs prints up to limit records (0 = all), noting any overflow.
func printRecs(w io.Writer, recs []decision.Record, limit int) {
	n := len(recs)
	if limit > 0 && n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "  %s\n", recLine(&recs[i]))
	}
	if n < len(recs) {
		fmt.Fprintf(w, "  … and %d more (raise -limit)\n", len(recs)-n)
	}
}
