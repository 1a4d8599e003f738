// Command benchjson converts `go test -bench` output into a JSON
// snapshot and gates performance regressions between two snapshots.
//
// Snapshot mode reads benchmark output on stdin and writes JSON:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./... | benchjson -o BENCH.json
//
// A benchmark that appears on several lines (-count N) is folded into
// the per-metric median of its samples, so one noisy run cannot move
// the snapshot.
//
// Compare mode diffs a new snapshot against a committed baseline:
//
//	benchjson -compare BENCH_baseline.json BENCH_new.json -tolerance 0.15
//
// The gate is asymmetric by metric:
//
//   - allocs/op is hardware-independent and (for this repo's
//     deterministic simulator) reproducible, so it is gated on every
//     comparison: a relative increase beyond the tolerance fails.
//   - ns/op is only meaningful between runs on matching hardware, so
//     it is gated when the two snapshots' host metadata (OS, arch, CPU
//     model, CPU count, GOMAXPROCS) agrees and reported as
//     informational otherwise.
//   - events/sec (simulation throughput from the cluster benchmarks)
//     gates like ns/op — matching hardware only — but in the opposite
//     direction: a relative drop beyond the tolerance fails.
//   - a benchmark present in the baseline but missing from the new
//     snapshot fails (coverage loss); new benchmarks are noted.
//
// Exit status: 0 clean, 1 regression or coverage loss, 2 usage error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Meta records the environment a snapshot was measured in. Compare
// mode uses it to decide whether wall-clock metrics are comparable.
type Meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Note       string `json:"note,omitempty"`
}

// Snapshot is one benchmark run: metric name → value, per benchmark.
type Snapshot struct {
	Meta       Meta                          `json:"meta"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "-", "snapshot mode: output path (- for stdout)")
	note := fs.String("note", "", "snapshot mode: free-form note stored in the metadata")
	compare := fs.Bool("compare", false, "compare mode: diff <baseline.json> <new.json>")
	tolerance := fs.Float64("tolerance", 0.15, "compare mode: allowed relative growth per gated metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchjson: -compare needs exactly two snapshot files")
			return 2
		}
		return compareSnapshots(stdout, stderr, fs.Arg(0), fs.Arg(1), *tolerance)
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchjson: snapshot mode reads stdin and takes no arguments")
		return 2
	}

	snap, err := parseBench(stdin, *note)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines found on stdin")
		return 2
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}
	data = append(data, '\n')
	if *out == "-" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "benchjson: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
	return 0
}

// parseBench scans `go test -bench` output. A benchmark line is
//
//	BenchmarkName-8   12345   77.67 ns/op   64 B/op   1 allocs/op ...
//
// i.e. a name, an iteration count, then (value, unit) pairs; custom
// b.ReportMetric units (events/sec, ...) parse the same way. Repeated
// lines for one benchmark fold into the median of each metric.
func parseBench(r io.Reader, note string) (*Snapshot, error) {
	snap := &Snapshot{
		Meta: Meta{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel:   cpuModel(),
			Note:       note,
		},
		Benchmarks: make(map[string]map[string]float64),
	}
	samples := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		metrics := samples[name]
		if metrics == nil {
			metrics = make(map[string][]float64)
			samples[name] = metrics
		}
		metrics["iterations"] = append(metrics["iterations"], iters)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			metrics[fields[i+1]] = append(metrics[fields[i+1]], v)
		}
	}
	for name, metrics := range samples {
		folded := make(map[string]float64, len(metrics))
		for unit, vs := range metrics {
			folded[unit] = median(vs)
		}
		snap.Benchmarks[name] = folded
	}
	return snap, sc.Err()
}

// median returns the middle sample, or the mean of the two middle
// samples for an even count. It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// cpuModel best-effort reads the CPU model name (linux only).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, after, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(after)
			}
		}
	}
	return ""
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// sameHost reports whether wall-clock numbers from the two snapshots
// are comparable.
func sameHost(a, b Meta) bool {
	if a.GOOS != b.GOOS || a.GOARCH != b.GOARCH ||
		a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS {
		return false
	}
	if a.CPUModel != "" && b.CPUModel != "" && a.CPUModel != b.CPUModel {
		return false
	}
	return true
}

func compareSnapshots(stdout, stderr io.Writer, basePath, newPath string, tol float64) int {
	base, err := loadSnapshot(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}
	cur, err := loadSnapshot(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}

	gateTime := sameHost(base.Meta, cur.Meta)
	if !gateTime {
		fmt.Fprintf(stdout, "note: host metadata differs (%s/%s/%dcpu vs %s/%s/%dcpu); ns/op reported but not gated\n",
			base.Meta.GOOS, base.Meta.GOARCH, base.Meta.NumCPU,
			cur.Meta.GOOS, cur.Meta.GOARCH, cur.Meta.NumCPU)
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	// check gates one metric; lowerIsBetter selects which direction of
	// drift beyond the tolerance counts as a regression (ns/op and
	// allocs/op shrink when things improve; events/sec grows).
	check := func(name, metric string, gate, lowerIsBetter bool) {
		old, okOld := base.Benchmarks[name][metric]
		now, okNew := cur.Benchmarks[name][metric]
		if !okOld || !okNew || old == 0 {
			return
		}
		delta := (now - old) / old
		worse, better := delta > tol, delta < -tol
		if !lowerIsBetter {
			worse, better = delta < -tol, delta > tol
		}
		status := "ok"
		switch {
		case worse && gate:
			status = "REGRESSION"
			failures++
		case worse:
			status = "worse (ungated)"
		case better:
			status = "improved"
		}
		fmt.Fprintf(stdout, "%-40s %-10s %12.2f -> %12.2f  %+6.1f%%  %s\n",
			name, metric, old, now, delta*100, status)
	}
	for _, name := range names {
		if _, ok := cur.Benchmarks[name]; !ok {
			fmt.Fprintf(stdout, "%-40s MISSING from new snapshot\n", name)
			failures++
			continue
		}
		check(name, "ns/op", gateTime, true)
		check(name, "allocs/op", true, true)
		// Simulation throughput is wall-clock-derived, so like ns/op it
		// only gates between matching hosts.
		check(name, "events/sec", gateTime, false)
	}
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(stdout, "%-40s new benchmark (no baseline)\n", name)
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "benchjson: %d regression(s) beyond %.0f%% tolerance\n", failures, tol*100)
		return 1
	}
	fmt.Fprintf(stdout, "benchjson: no regressions beyond %.0f%% tolerance (%d benchmarks)\n", tol*100, len(names))
	return 0
}
