// Command irsload drives the multi-rack control plane with a
// declarative cluster-load spec: zones and hosts, arrival ramps or a
// diurnal curve, tenant mix, zone outages, burn-rate alerting, and the
// replica autoscaler. It prints the end-to-end outcome — tail
// latency, SLO burn per phase, failover traffic, scale events — and
// with -expect gates the post-recovery SLO-violation rate for CI.
//
// Usage:
//
//	irsload [-variant 2z8h-outage] [-spec 'topo:zones=2,...'] [-file spec.load]
//	        [-seed 1] [-expect 1.0] [-v]
//
// Exactly one of -variant, -spec, -file selects the load spec;
// -variant names a built-in rig (irsload -list shows them).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variant := fs.String("variant", "", "built-in load spec by name (see -list)")
	specFlag := fs.String("spec", "", "inline load spec (topology.ParseLoadSpec syntax)")
	file := fs.String("file", "", "read the load spec from a file")
	list := fs.Bool("list", false, "list built-in variants and exit")
	seed := fs.Uint64("seed", 1, "random seed")
	expect := fs.Float64("expect", -1, "fail unless the post-recovery SLO-violation rate is below this percentage")
	verbose := fs.Bool("v", false, "echo the parsed spec before running")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, v := range experiments.ScaleVariants() {
			fmt.Fprintf(stdout, "%-14s %s\n", v.Name, v.Spec)
		}
		return 0
	}

	text, name, code := specText(*variant, *specFlag, *file, stderr)
	if code != 0 {
		return code
	}
	spec, err := topology.ParseLoadSpec(text)
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 2
	}
	if *verbose {
		fmt.Fprintf(stdout, "spec: %s\n", spec.String())
	}

	cfg, err := experiments.ScaleConfig(spec, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 2
	}
	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 1
	}
	res, err := c.Run()
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 1
	}

	report(stdout, name, spec, res)

	if res.Unserved != 0 {
		fmt.Fprintf(stderr, "irsload: %d of %d requests unserved\n", res.Unserved, res.Generated)
		return 1
	}
	if res.Violations != 0 {
		fmt.Fprintf(stderr, "irsload: %d invariant violations\n", res.Violations)
		return 1
	}
	if *expect >= 0 {
		rate, ok := recoveryRate(res)
		if !ok {
			fmt.Fprintln(stderr, "irsload: -expect set but the spec has no outage (no recovery phase to gate)")
			return 1
		}
		if rate*100 >= *expect {
			fmt.Fprintf(stderr, "irsload: recovery SLO-violation rate %.2f%% is not below the -expect gate %.2f%%\n",
				rate*100, *expect)
			return 1
		}
		fmt.Fprintf(stdout, "expect gate: recovery slo-viol %.2f%% < %.2f%% — ok\n", rate*100, *expect)
	}
	return 0
}

// specText resolves the one allowed spec source into its text.
func specText(variant, spec, file string, stderr io.Writer) (text, name string, code int) {
	set := 0
	for _, s := range []string{variant, spec, file} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		fmt.Fprintln(stderr, "irsload: exactly one of -variant, -spec, -file must be given")
		return "", "", 2
	}
	switch {
	case variant != "":
		v, ok := experiments.ScaleVariantByName(variant)
		if !ok {
			fmt.Fprintf(stderr, "irsload: unknown variant %q (try -list)\n", variant)
			return "", "", 2
		}
		return v.Spec, v.Name, 0
	case spec != "":
		return spec, "spec", 0
	default:
		b, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(stderr, "irsload: %v\n", err)
			return "", "", 2
		}
		return string(b), file, 0
	}
}

// report prints the run outcome: headline latency/SLO numbers, the
// control-plane counters, and the per-phase SLO breakdown when the
// spec injected an outage.
func report(w io.Writer, name string, spec topology.LoadSpec, res *cluster.Result) {
	fmt.Fprintf(w, "== irsload %s: %s ==\n", name, spec.Topology())
	fmt.Fprintf(w, "served   %d/%d  p50 %v  p99 %v  slo-viol %d (%.2f%%)\n",
		res.Served, res.Generated, time.Duration(res.P50), time.Duration(res.P99),
		res.SLOViolations, res.SLORate*100)
	fmt.Fprintf(w, "zones    %d  outages %d  failover %d  alerts %d  migrations %d\n",
		res.Zones, res.ZoneOutages, res.Failover, res.Alerts, res.Migrations)
	fmt.Fprintf(w, "replicas %d→%d  scale +%d/-%d  invariant-violations %d\n",
		spec.ServersPerZone*spec.Zones, res.Replicas, res.ScaleUps, res.ScaleDowns, res.Violations)
	if len(res.Phases) == 3 {
		labels := []string{"pre-outage", "outage+settle", "recovered"}
		for i, p := range res.Phases {
			fmt.Fprintf(w, "phase %-13s served %6d  slo-viol %5d (%.2f%%)\n",
				labels[i], p.Served, p.Violations, p.Rate*100)
		}
	}
}

// recoveryRate returns the SLO-violation rate of the post-recovery
// phase, when the run had the three-phase outage layout.
func recoveryRate(res *cluster.Result) (float64, bool) {
	if len(res.Phases) != 3 {
		return 0, false
	}
	return res.Phases[2].Rate, true
}
