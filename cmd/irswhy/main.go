// Command irswhy answers "why did the scheduler do that?" for a
// cluster run: it executes a load spec with the decision audit log
// attached and prints the incident's decision trail, then lets you
// interrogate the full log with a filter query, rank the closest calls
// (smallest winning margins — where the schedule nearly went the other
// way), and export the records as JSON or a Perfetto trace that lines
// up with the span tracer's timeline. With -expect it gates CI on the
// exact trail.
//
// Usage:
//
//	irswhy [-variant 2z8h-outage] [-spec 'topo:zones=2,...'] [-kinds ctl]
//	       [-seed 1]
//	       [-q 'kind=place vm=srv0 t>6s'] [-limit 20] [-top 5]
//	       [-expect cordon,failover,scale-up,scale-up,drain,drain]
//	       [-json decisions.json] [-perfetto decisions.trace]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/decision"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irswhy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variant := fs.String("variant", "2z8h-outage", "built-in load spec by name (see -list)")
	specFlag := fs.String("spec", "", "inline load spec instead of -variant (topology.ParseLoadSpec syntax)")
	list := fs.Bool("list", false, "list built-in variants and exit")
	seed := fs.Uint64("seed", 1, "random seed")
	kindsFlag := fs.String("kinds", "ctl", "decision kinds to record: ctl, all, or a comma list (e.g. place,route)")
	query := fs.String("q", "", "print records matching this filter query (e.g. 'kind=place vm=srv0 t>6s')")
	limit := fs.Int("limit", 20, "cap on printed query records (0 = all)")
	top := fs.Int("top", 0, "print the N closest calls: scored decisions with the smallest winning margin")
	expect := fs.String("expect", "", "fail unless the decision trail is exactly this comma-separated step list")
	jsonOut := fs.String("json", "", "write the matched records as a JSON bundle to this file ('-' = stdout)")
	perfetto := fs.String("perfetto", "", "write the matched records as a Perfetto/Chrome trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, v := range experiments.ScaleVariants() {
			fmt.Fprintf(stdout, "%-14s %s\n", v.Name, v.Spec)
		}
		return 0
	}

	text, name := *specFlag, "spec"
	if text == "" {
		v, ok := experiments.ScaleVariantByName(*variant)
		if !ok {
			fmt.Fprintf(stderr, "irswhy: unknown variant %q (try -list)\n", *variant)
			return 2
		}
		text, name = v.Spec, v.Name
	}
	kinds, err := decision.ParseKinds(*kindsFlag)
	if err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 2
	}
	q, err := decision.ParseQuery(*query)
	if err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 2
	}

	c, err := experiments.RunWhy(text, kinds, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 1
	}
	log := c.Decisions()
	recs := log.Records()

	fmt.Fprintf(stdout, "== irswhy %s: %d decisions (%s, dropped %d) ==\n",
		name, len(recs), decision.CountsString(recs), log.Dropped())
	trail := decision.Trail(recs)
	for _, step := range trail {
		fmt.Fprintf(stdout, "trail %-9s %s\n", step.Label, recLine(&step.Rec))
	}

	if *query != "" {
		matched := decision.Filter(recs, q)
		fmt.Fprintf(stdout, "query %q: %d of %d records\n", q.String(), len(matched), len(recs))
		printRecs(stdout, matched, *limit)
	}
	if *top > 0 {
		calls := decision.ClosestCalls(decision.Filter(recs, q), *top)
		fmt.Fprintf(stdout, "closest calls (top %d by winning margin):\n", *top)
		printRecs(stdout, calls, 0)
	}

	if *jsonOut != "" {
		if code := export(*jsonOut, stdout, stderr, func(w io.Writer) error {
			return decision.WriteJSON(w, decision.Filter(recs, q), log.Dropped())
		}); code != 0 {
			return code
		}
	}
	if *perfetto != "" {
		if code := export(*perfetto, stdout, stderr, func(w io.Writer) error {
			return decision.WriteChromeTrace(w, decision.Filter(recs, q))
		}); code != 0 {
			return code
		}
	}

	if *expect != "" {
		got := decision.TrailString(trail)
		if got != *expect {
			fmt.Fprintf(stderr, "irswhy: decision trail %q does not match -expect %q\n", got, *expect)
			return 1
		}
		fmt.Fprintf(stdout, "expect gate: trail %s — ok\n", got)
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

// export writes one artifact to path ('-' = stdout).
func export(path string, stdout io.Writer, stderr io.Writer, write func(io.Writer) error) int {
	if path == "-" {
		if err := write(stdout); err != nil {
			fmt.Fprintf(stderr, "irswhy: %v\n", err)
			return 1
		}
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 1
	}
	if err := write(f); err != nil {
		f.Close()
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return 0
}
