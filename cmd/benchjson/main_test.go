package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/sim
BenchmarkScheduleFire-4     14801766        77.67 ns/op      12875772 events/sec        64 B/op        1 allocs/op
BenchmarkPeriodicFire-4     48233721        24.84 ns/op       0 B/op        0 allocs/op
PASS
ok   repro/internal/sim  3.1s
`

func TestParseBench(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleBench), "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(snap.Benchmarks))
	}
	fire := snap.Benchmarks["BenchmarkScheduleFire"]
	if fire == nil {
		t.Fatal("BenchmarkScheduleFire missing (or -4 suffix not stripped)")
	}
	if got := fire["ns/op"]; got != 77.67 {
		t.Errorf("ns/op = %v, want 77.67", got)
	}
	if got := fire["events/sec"]; got != 12875772 {
		t.Errorf("custom metric events/sec = %v, want 12875772", got)
	}
	if got := fire["allocs/op"]; got != 1 {
		t.Errorf("allocs/op = %v, want 1", got)
	}
	if snap.Meta.Note != "test" {
		t.Errorf("note = %q", snap.Meta.Note)
	}
}

// TestParseBenchFoldsRepeats: -count N prints a benchmark N times; each
// metric folds into the median of its samples, so one outlier run
// cannot move the snapshot.
func TestParseBenchFoldsRepeats(t *testing.T) {
	const repeated = `pkg: repro/internal/sim
BenchmarkRing-2   1000   0.60 ns/op   0 B/op   0 allocs/op
BenchmarkRing-2   1000   0.86 ns/op   0 B/op   0 allocs/op
BenchmarkRing-2   2000   0.58 ns/op   0 B/op   0 allocs/op
BenchmarkPair-2   10     100 ns/op   3 allocs/op
BenchmarkPair-2   30     120 ns/op   5 allocs/op
`
	snap, err := parseBench(strings.NewReader(repeated), "")
	if err != nil {
		t.Fatal(err)
	}
	ring := snap.Benchmarks["BenchmarkRing"]
	if ring["ns/op"] != 0.60 || ring["iterations"] != 1000 || ring["allocs/op"] != 0 {
		t.Errorf("odd count folded to %v, want the median sample (0.60 ns/op, 1000 iterations)", ring)
	}
	pair := snap.Benchmarks["BenchmarkPair"]
	if pair["ns/op"] != 110 || pair["iterations"] != 20 || pair["allocs/op"] != 4 {
		t.Errorf("even count folded to %v, want the mean of the middle two", pair)
	}
}

// writeSnap renders a snapshot file via the real snapshot code path.
func writeSnap(t *testing.T, dir, name, benchOut string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", path}, strings.NewReader(benchOut), &stdout, &stderr); code != 0 {
		t.Fatalf("snapshot exited %d: %s", code, stderr.String())
	}
	return path
}

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", sampleBench)

	// Identical snapshots: clean.
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", base, base}, nil, &out, &errOut); code != 0 {
		t.Fatalf("self-compare exited %d:\n%s%s", code, out.String(), errOut.String())
	}

	// ns/op regression beyond 15% on the same host: gated.
	worse := strings.Replace(sampleBench, "77.67 ns/op", "177.67 ns/op", 1)
	worsePath := writeSnap(t, dir, "worse.json", worse)
	out.Reset()
	if code := run([]string{"-compare", base, worsePath}, nil, &out, &errOut); code != 1 {
		t.Fatalf("ns/op regression not gated (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION marker:\n%s", out.String())
	}

	// allocs/op regression: gated even across hosts.
	alloc := strings.Replace(sampleBench, "1 allocs/op", "3 allocs/op", 1)
	allocPath := writeSnap(t, dir, "alloc.json", alloc)
	mutateHost(t, allocPath)
	out.Reset()
	if code := run([]string{"-compare", base, allocPath}, nil, &out, &errOut); code != 1 {
		t.Fatalf("allocs/op regression not gated (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "not gated") {
		t.Errorf("cross-host ns/op should be reported ungated:\n%s", out.String())
	}

	// Missing benchmark: coverage loss fails.
	short := strings.Replace(sampleBench, "BenchmarkPeriodicFire", "BenchmarkRenamed", 1)
	shortPath := writeSnap(t, dir, "short.json", short)
	out.Reset()
	if code := run([]string{"-compare", base, shortPath}, nil, &out, &errOut); code != 1 {
		t.Fatalf("missing benchmark not gated (exit %d):\n%s", code, out.String())
	}

	// events/sec gates in the opposite direction: a throughput DROP
	// beyond the tolerance fails on matching hardware...
	slow := strings.Replace(sampleBench, "12875772 events/sec", "6875772 events/sec", 1)
	slowPath := writeSnap(t, dir, "slow.json", slow)
	out.Reset()
	if code := run([]string{"-compare", base, slowPath}, nil, &out, &errOut); code != 1 {
		t.Fatalf("events/sec drop not gated (exit %d):\n%s", code, out.String())
	}
	// ...a throughput gain is an improvement, not a regression...
	fast := strings.Replace(sampleBench, "12875772 events/sec", "22875772 events/sec", 1)
	fastPath := writeSnap(t, dir, "fast.json", fast)
	out.Reset()
	if code := run([]string{"-compare", base, fastPath}, nil, &out, &errOut); code != 0 {
		t.Fatalf("events/sec gain gated as a regression (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "improved") {
		t.Errorf("throughput gain not reported as improved:\n%s", out.String())
	}
	// ...and across hosts the drop is reported but ungated.
	slowFar := writeSnap(t, dir, "slowfar.json", slow)
	mutateHost(t, slowFar)
	out.Reset()
	if code := run([]string{"-compare", base, slowFar}, nil, &out, &errOut); code != 0 {
		t.Fatalf("cross-host events/sec drop should not gate (exit %d):\n%s", code, out.String())
	}
}

// mutateHost rewrites a snapshot's num_cpu so it looks like a
// different machine.
func mutateHost(t *testing.T, path string) {
	t.Helper()
	snap, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Meta.NumCPU += 7
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
}
