package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/kv"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// badInput is one usage or input error case: bad flags, specs and
// names exit 2, failed runs and gates exit 1, and stderr carries the
// fragment where the message says more than the flag package.
type badInput struct {
	name   string
	args   []string
	code   int
	stderr string
}

func checkBadInputs(t *testing.T, cases []badInput) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runCmd(t, tc.args...)
			if code != tc.code {
				t.Fatalf("irs %v: exit = %d, want %d (stderr: %s)", tc.args, code, tc.code, errOut)
			}
			if !strings.Contains(errOut, tc.stderr) {
				t.Fatalf("irs %v: stderr %q does not mention %q", tc.args, errOut, tc.stderr)
			}
		})
	}
}

// TestBadInputs pins the front end's own errors, before any subcommand
// parses its flags.
func TestBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"unknown subcommand", []string{"frob"}, 2, `unknown subcommand "frob"`},
		{"bad global flag", []string{"-nonsense", "sim", "list"}, 2, ""},
		{"unwritable cpuprofile", []string{"-cpuprofile", "/nonexistent-dir/cpu.pprof", "sim", "list"}, 1, "-cpuprofile"},
	})
}

func TestSimBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"no ids", []string{"sim"}, 2, "usage: irs sim"},
		{"bad flag", []string{"sim", "-nonsense"}, 2, ""},
		{"unknown experiment", []string{"sim", "fig99"}, 1, "unknown experiment"},
	})
}

func TestSweepBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"bad flag", []string{"sweep", "-nonsense"}, 2, ""},
		{"bad inter", []string{"sweep", "-inter", "1,x"}, 2, ""},
		{"negative inter", []string{"sweep", "-inter", "-3"}, 2, ""},
		{"bad mode", []string{"sweep", "-mode", "busy"}, 2, ""},
		{"bad hosts", []string{"sweep", "-cluster", "-hosts", "two"}, 2, ""},
		{"zero zones", []string{"sweep", "-cluster", "-zones", "0"}, 2, ""},
		{"stray argument", []string{"sweep", "extra"}, 2, `unexpected argument "extra"`},
		{"unknown bench", []string{"sweep", "-bench", "nosuchbench"}, 1, ""},
	})
}

func TestAttackBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"no spec", []string{"attack"}, 2, "usage: irs attack"},
		{"bad spec", []string{"attack", "frobnicate"}, 2, ""},
		{"zero spec", []string{"attack", "none"}, 2, "names no attackers"},
		{"all-zero specs", []string{"attack", "none;off"}, 2, "names no attackers"},
		{"two arguments", []string{"attack", "tick-evade", "fig1a"}, 2, ""},
	})
}

func TestReportBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"bad flag", []string{"report", "-nonsense"}, 2, ""},
		{"bad faults", []string{"report", "-faults", "bogus=1"}, 2, ""},
		{"unknown strategy", []string{"report", "-strategy", "fifo"}, 2, ""},
		{"empty strategy list", []string{"report", "-strategy", ""}, 2, ""},
		{"unknown bench", []string{"report", "-bench", "nosuchbench"}, 1, ""},
	})
}

func TestTraceBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"bad flag", []string{"trace", "-nonsense"}, 2, ""},
		{"unknown strategy", []string{"trace", "-strategy", "fifo"}, 2, ""},
		{"two strategies", []string{"trace", "-strategy", "vanilla,irs"}, 2, "one strategy"},
		{"bad kinds", []string{"trace", "-kinds", "bogus"}, 2, ""},
		{"unknown bench", []string{"trace", "-bench", "nosuchbench"}, 1, ""},
	})
}

func TestBlameBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"unknown strategy", []string{"blame", "-strategy", "nope"}, 2, ""},
		{"empty strategy list", []string{"blame", "-strategy", ""}, 2, ""},
		{"bad flag", []string{"blame", "-frobnicate"}, 2, ""},
		{"unwritable perfetto path", []string{"blame", "-duration", "50ms", "-strategy", "vanilla", "-perfetto", "/nonexistent-dir/x.json"}, 1, ""},
		{"unwritable csv path", []string{"blame", "-duration", "50ms", "-strategy", "vanilla", "-csv", "/nonexistent-dir/x.csv"}, 1, ""},
	})
}

func TestWatchBadInputs(t *testing.T) {
	dir := t.TempDir()
	checkBadInputs(t, []badInput{
		{"unknown scenario", []string{"watch", "-scenario", "nope"}, 2, ""},
		{"bad flag", []string{"watch", "-frobnicate"}, 2, ""},
		{"bad rules", []string{"watch", "-rules", "page:budget=2"}, 2, ""},
		{"empty rules", []string{"watch", "-rules", ";;"}, 2, ""},
		{"dump without incident", []string{"watch", "-scenario", "quiet", "-duration", "2s", "-dump", dir + "/x"}, 1, ""},
		// The -expect-top gate's failure case.
		{"expect-top without alert", []string{"watch", "-scenario", "quiet", "-duration", "2s", "-expect-top", "bully"}, 1, "none fired"},
	})
}

func TestLoadBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"bad flag", []string{"load", "-nonsense"}, 2, ""},
		{"no spec source", []string{"load"}, 2, "exactly one of"},
		{"two sources", []string{"load", "-variant", "x", "-spec", "topo:zones=1,hosts=1"}, 2, "exactly one of"},
		{"unknown variant", []string{"load", "-variant", "nosuchrig"}, 2, ""},
		{"invalid spec", []string{"load", "-spec", "topo:zones=0"}, 2, ""},
		{"missing file", []string{"load", "-file", "/nonexistent.load"}, 2, ""},
	})
}

func TestWhyBadInputs(t *testing.T) {
	checkBadInputs(t, []badInput{
		{"bad flag", []string{"why", "-nonsense"}, 2, ""},
		{"unknown variant", []string{"why", "-variant", "nosuchrig"}, 2, ""},
		{"two sources", []string{"why", "-variant", "1z4h", "-spec", "topo:zones=1,hosts=1"}, 2, "exactly one of"},
		{"invalid spec", []string{"why", "-spec", "topo:zones=0"}, 2, ""},
		{"unknown kind", []string{"why", "-kinds", "bogus"}, 2, ""},
		{"malformed query", []string{"why", "-q", "kind=place kind=x"}, 2, ""},
	})
}

func TestNoArgsIsUsageError(t *testing.T) {
	code, _, errOut := runCmd(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Fatalf("no usage message on stderr: %q", errOut)
	}
	for _, sub := range []string{"sim", "sweep", "attack", "report", "trace", "blame", "watch", "load", "why"} {
		if !strings.Contains(errOut, sub) {
			t.Fatalf("usage does not list %q: %q", sub, errOut)
		}
	}
}

// TestParseInterleavesFlags: flags may follow positional arguments, and
// "--" ends flag parsing.
func TestParseInterleavesFlags(t *testing.T) {
	c := &cli{name: "irs test", stderr: io.Discard, fs: flag.NewFlagSet("irs test", flag.ContinueOnError)}
	c.fs.SetOutput(io.Discard)
	n := c.fs.Int("n", 0, "")
	pos, ok := c.parse([]string{"a", "-n", "3", "b", "--", "-n", "c"})
	if !ok || *n != 3 || !slices.Equal(pos, []string{"a", "b", "-n", "c"}) {
		t.Fatalf("parse = %q, %v (n=%d)", pos, ok, *n)
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code, _, errOut := runCmd(t, "-cpuprofile", cpu, "-memprofile", mem, "sim", "list"); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s not written: %v", path, err)
		}
	}
}

func TestListIncludesEveryExperiment(t *testing.T) {
	code, out, _ := runCmd(t, "sim", "list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, id := range []string{"fig1a", "claims", "chaos", "cluster"} {
		if !strings.Contains(out, id+"\n") {
			t.Errorf("list output missing %q", id)
		}
	}
}

func TestClusterExperimentDeterministic(t *testing.T) {
	// The headline property: same seed ⇒ byte-identical stdout, at any
	// worker count and with the flags before or after the id.
	code, out, errOut := runCmd(t, "sim", "-runs", "1", "-seed", "1", "cluster")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "first-fit") || !strings.Contains(out, "ia+irs") {
		t.Fatalf("cluster table missing variants:\n%s", out)
	}
	code2, out2, _ := runCmd(t, "sim", "cluster", "-runs", "1", "-seed", "1")
	if code2 != 0 || out2 != out {
		t.Fatalf("interleaved-flag rerun differs (exit %d)", code2)
	}
	code3, out3, _ := runCmd(t, "sim", "-workers", "1", "-runs", "1", "-seed", "1", "cluster")
	if code3 != 0 || out3 != out {
		t.Fatalf("serial run differs from parallel (exit %d)", code3)
	}
}

func TestAttackGatePassesWithDefenses(t *testing.T) {
	code, out, errOut := runCmd(t, "attack", "tick-evade", "-expect-overshoot", "1.05")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "vanilla") || !strings.Contains(out, "both") {
		t.Fatalf("attack table missing defense rows:\n%s", out)
	}
	if !strings.Contains(errOut, "gate ok") {
		t.Fatalf("no gate verdict on stderr: %q", errOut)
	}
}

func TestAttackGateFailsOnImpossibleCap(t *testing.T) {
	// No defense can hold an attacker below 1% of fair share; the gate
	// must trip.
	code, _, errOut := runCmd(t, "attack", "tick-evade", "-expect-overshoot", "0.01")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "gate FAILED") {
		t.Fatalf("stderr = %q", errOut)
	}
}

func TestAttackSweepMatrix(t *testing.T) {
	code, out, errOut := runCmd(t, "attack", "-seed", "1", "tick-evade;boost-game,run=2ms")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"tick-evade", "boost-game,run=2ms", "vanilla", "jitter", "exact", "both"} {
		if !strings.Contains(out, want) {
			t.Errorf("attack matrix missing %q:\n%s", want, out)
		}
	}
	// Same seed ⇒ byte-identical, serial vs parallel.
	code2, out2, _ := runCmd(t, "attack", "-seed", "1", "-workers", "1", "tick-evade;boost-game,run=2ms")
	if code2 != 0 || out2 != out {
		t.Fatalf("serial attack sweep differs from parallel (exit %d)", code2)
	}
}

func TestListPrintsBenchmarks(t *testing.T) {
	code, out, _ := runCmd(t, "sweep", "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if !strings.Contains(out, "streamcluster") {
		t.Fatalf("-list output missing streamcluster:\n%s", out)
	}
}

func TestCountList(t *testing.T) {
	if got, err := kv.List(" 2, 3 ,4", count); err != nil || len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("count list = %v, %v", got, err)
	}
	for _, bad := range []string{"2,-1", "2,,3", ""} {
		if _, err := kv.List(bad, count); err == nil {
			t.Fatalf("count list accepted %q", bad)
		}
	}
}

func TestClusterSweepDeterministic(t *testing.T) {
	code, out, errOut := runCmd(t, "sweep", "-cluster", "-hosts", "3", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"hosts", "first-fit", "least-loaded", "ia+irs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
	code2, out2, _ := runCmd(t, "sweep", "-cluster", "-hosts", "3", "-seed", "1", "-workers", "1")
	if code2 != 0 || out2 != out {
		t.Fatalf("serial sweep differs from parallel (exit %d)", code2)
	}
}

func TestClusterSweepZones(t *testing.T) {
	code, out, errOut := runCmd(t, "sweep", "-cluster", "-hosts", "2", "-zones", "2", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "hosts/2z") {
		t.Fatalf("zoned sweep header missing hosts/2z:\n%s", out)
	}
	// A zoned run is a different topology, so its numbers must differ
	// from the flat run over the same total host count.
	_, flat, _ := runCmd(t, "sweep", "-cluster", "-hosts", "4", "-seed", "1")
	flatRow := flat[strings.LastIndex(flat, "\n4"):]
	zonedRow := out[strings.LastIndex(out, "\n2"):]
	if strings.TrimSpace(flatRow[2:]) == strings.TrimSpace(zonedRow[2:]) {
		t.Fatal("2-zone sweep produced the same cells as the flat 4-host sweep")
	}
}

func TestInsertSuffix(t *testing.T) {
	if got := insertSuffix("out.csv", "irs"); got != "out.irs.csv" {
		t.Fatalf("insertSuffix = %q", got)
	}
	if got := insertSuffix("trace", "ple"); got != "trace.ple" {
		t.Fatalf("insertSuffix = %q", got)
	}
}

func TestReportRunsAndIsDeterministic(t *testing.T) {
	prom := filepath.Join(t.TempDir(), "out.prom")
	args := []string{"report", "-strategy", "irs", "-inter", "1", "-seed", "1", "-prom", prom}
	code, out, errOut := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"irs report: bench=streamcluster", "steal per vCPU", "SA sent/ack/exp", "telemetry"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut, "wrote prometheus") {
		t.Fatalf("stderr missing export confirmation: %q", errOut)
	}
	code2, out2, _ := runCmd(t, args...)
	if code2 != 0 || out2 != out {
		t.Fatalf("rerun differs (exit %d)", code2)
	}
}

func TestTraceDumpsWindowDeterministically(t *testing.T) {
	args := []string{"trace", "-strategy", "irs", "-inter", "1", "-seed", "1",
		"-at", "1s", "-window", "50ms", "-kinds", "sa,switch"}
	code, out, errOut := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "events shown") || !strings.Contains(out, "runtime=") {
		t.Fatalf("trace summary missing:\n%s", out)
	}
	// The ring-buffer drop counter is part of the summary: readers must
	// be able to tell a complete window from a truncated one.
	if !strings.Contains(out, "dropped at capacity") {
		t.Fatalf("summary does not surface the dropped-event count:\n%s", out)
	}
	code2, out2, _ := runCmd(t, args...)
	if code2 != 0 || out2 != out {
		t.Fatalf("rerun differs (exit %d)", code2)
	}
}

func TestBlameOutputDeterministic(t *testing.T) {
	args := []string{"blame", "-duration", "300ms", "-top", "2", "-strategy", "vanilla,irs"}
	render := func() string {
		code, out, errOut := runCmd(t, args...)
		if code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut)
		}
		return out
	}
	first := render()
	for _, want := range []string{
		"== vanilla:", "== irs:",
		"conservation: 0 violations, max error 0s",
		"p99", "slowest 2 requests:",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("output missing %q:\n%s", want, first)
		}
	}
	if second := render(); first != second {
		t.Fatal("two identical invocations produced different bytes")
	}
}

func TestPerfettoExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	code, out, errOut := runCmd(t, "blame", "-duration", "200ms", "-top", "2", "-strategy", "vanilla,irs", "-perfetto", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "wrote perfetto span trace") {
		t.Fatal("no perfetto confirmation line")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("perfetto file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto file has no events")
	}
	// Both strategies must appear as named processes.
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e["name"] == "process_name" {
			if args, ok := e["args"].(map[string]any); ok {
				names[args["name"].(string)] = true
			}
		}
	}
	if !names["vanilla"] || !names["irs"] {
		t.Fatalf("process names = %v, want vanilla and irs", names)
	}
}

func TestCSVExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blame.csv")
	code, out, errOut := runCmd(t, "blame", "-duration", "200ms", "-top", "0", "-strategy", "vanilla,irs", "-csv", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "wrote blame breakdown CSV") {
		t.Fatal("no CSV confirmation line")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "strategy,band,requests,band_wall_ns,category,time_ns,share" {
		t.Fatalf("bad header: %q", lines[0])
	}
	if len(lines) < 8 {
		t.Fatalf("only %d CSV lines, want both strategies' bands", len(lines))
	}
	both := map[string]bool{}
	for _, ln := range lines[1:] {
		fields := strings.Split(ln, ",")
		if len(fields) != 7 {
			t.Fatalf("row has %d fields: %q", len(fields), ln)
		}
		both[fields[0]] = true
	}
	if !both["vanilla"] || !both["irs"] {
		t.Fatalf("strategies in CSV = %v, want vanilla and irs", both)
	}
}

func TestBullyScenarioAlertsAndDumps(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "incident")
	code, text, errOut := runCmd(t, "watch", "-expect-top", "bully", "-dump", prefix)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(text, "ALERT page:") {
		t.Fatalf("no live alert line in output:\n%s", text)
	}
	if !strings.Contains(text, "#1 srv0<-bully") {
		t.Fatalf("bully not top-ranked in output:\n%s", text)
	}

	raw, err := os.ReadFile(prefix + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var inc struct {
		Reason   string `json:"reason"`
		Rankings []struct {
			Aggressor string `json:"aggressor"`
		} `json:"rankings"`
		Series []json.RawMessage `json:"series"`
		Spans  []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(raw, &inc); err != nil {
		t.Fatalf("incident bundle is not valid JSON: %v", err)
	}
	if inc.Reason != "slo-alert" || len(inc.Rankings) == 0 || inc.Rankings[0].Aggressor != "bully" {
		t.Fatalf("bundle reason=%q rankings=%+v", inc.Reason, inc.Rankings)
	}
	if len(inc.Series) == 0 || len(inc.Spans) == 0 {
		t.Fatalf("bundle missing telemetry: %d series, %d spans", len(inc.Series), len(inc.Spans))
	}

	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	rawTr, err := os.ReadFile(prefix + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawTr, &tr); err != nil {
		t.Fatalf("trace half is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace half has no events")
	}
}

func TestQuietScenarioStaysSilent(t *testing.T) {
	code, out, errOut := runCmd(t, "watch", "-scenario", "quiet")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if strings.Contains(out, "ALERT") {
		t.Fatalf("quiet scenario printed an alert:\n%s", out)
	}
}

func TestOutputDeterministic(t *testing.T) {
	render := func() string {
		code, out, errOut := runCmd(t, "watch", "-duration", "6s")
		if code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut)
		}
		return out
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("same seed diverged:\n%s\n---\n%s", a, b)
	}
}

// TestBullyBundleDigest pins every byte of the bully scenario's first
// incident bundle, host event tails included, by SHA-256: the bundle
// is too large to commit as a golden, and any change to how a host's
// trailing events or the recent spans are captured shifts a digest.
func TestBullyBundleDigest(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "incident")
	if code, _, errOut := runCmd(t, "watch", "-scenario", "bully", "-dump", prefix); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	want := map[string]string{
		".json":       "2341fdd2118813a5fc4e2b4af8218b0d49ecaba2a8a3a55e0df20a233d166c82",
		".trace.json": "3d33edfbfe5740858392c93903882797157269d337d22a1c535d336ec9a14f4e",
	}
	for suffix, sum := range want {
		raw, err := os.ReadFile(prefix + suffix)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(raw)
		if got := hex.EncodeToString(h[:]); got != sum {
			t.Errorf("incident%s digest %s, want %s", suffix, got, sum)
		}
	}
}

// checkListPrintsVariants: the -list path shared by `irs load` and
// `irs why` names every built-in rig.
func checkListPrintsVariants(t *testing.T, sub string) {
	t.Helper()
	code, out, _ := runCmd(t, sub, "-list")
	if code != 0 {
		t.Fatalf("%s -list exited %d", sub, code)
	}
	for _, want := range []string{"1z4h", "2z4h-diurnal", "2z8h-outage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("%s -list output missing %q:\n%s", sub, want, out)
		}
	}
}

func TestLoadListPrintsVariants(t *testing.T) { checkListPrintsVariants(t, "load") }

func TestWhyListPrintsVariants(t *testing.T) { checkListPrintsVariants(t, "why") }

func TestOutageVariantPassesExpectGate(t *testing.T) {
	// The acceptance rig end to end: outage mid-ramp, failover, the
	// autoscaler restoring the replica count, and a recovered SLO rate
	// below the 1% CI gate.
	code, out, errOut := runCmd(t, "load", "-variant", "2z8h-outage", "-expect", "1.0")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"failover", "recovered", "expect gate", "— ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "scale +0/-0") {
		t.Fatalf("autoscaler never acted:\n%s", out)
	}
}

func TestExpectGateFailsWhenUnreachable(t *testing.T) {
	// A 0% gate cannot be met strictly (rate must be *below* it), so
	// this pins the failure path.
	code, _, errOut := runCmd(t, "load", "-variant", "2z8h-outage", "-expect", "0")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(errOut, "not below the -expect gate") {
		t.Fatalf("stderr missing gate message: %s", errOut)
	}
}

func TestExpectRequiresOutagePhases(t *testing.T) {
	code, _, errOut := runCmd(t, "load", "-variant", "1z4h", "-expect", "1.0")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "no outage") {
		t.Fatalf("stderr missing phase message: %s", errOut)
	}
}

func TestSpecFileAndDeterminism(t *testing.T) {
	spec := "topo:zones=2,hosts=2,pcpus=4; load:arrival=2ms,duration=4s,drain=1s; " +
		"tenants:servers=1,server-vcpus=2,ants=1,ant-vcpus=2,spacing=300ms"
	path := filepath.Join(t.TempDir(), "rig.load")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCmd(t, "load", "-file", path, "-v")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "spec: topo:zones=2") {
		t.Fatalf("-v did not echo the parsed spec:\n%s", out)
	}
	// Same spec inline, same seed: identical measurements (the report
	// header names the source, so compare from the numbers on).
	results := func(s string) string {
		if i := strings.Index(s, "served"); i >= 0 {
			return s[i:]
		}
		return s
	}
	_, inline, _ := runCmd(t, "load", "-spec", spec, "-v")
	if results(inline) != results(out) {
		t.Fatalf("inline spec differs from file spec:\n%s\n%s", inline, out)
	}
}

// TestExpectGatePassesOnOutageTrail is the CI acceptance path: the
// outage rig's decision trail is exactly the elasticity story.
func TestExpectGatePassesOnOutageTrail(t *testing.T) {
	code, out, errOut := runCmd(t, "why", "-expect", "cordon,failover,scale-up,scale-up,drain,drain")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"trail cordon", "trail failover", "expect gate", "— ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestExpectGateFailsOnWrongTrail(t *testing.T) {
	code, _, errOut := runCmd(t, "why", "-expect", "cordon,drain")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(errOut, "does not match -expect") {
		t.Fatalf("stderr missing trail mismatch: %s", errOut)
	}
}

// TestQueryAndTopAreDeterministic pins the whole pipeline: two
// identical invocations — query, closest calls, trail — must emit
// byte-identical output.
func TestQueryAndTopAreDeterministic(t *testing.T) {
	args := []string{"why", "-q", "kind=autoscale", "-top", "3"}
	_, first, _ := runCmd(t, args...)
	_, second, _ := runCmd(t, args...)
	if first != second {
		t.Fatalf("output differs between identical runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "query \"kind=autoscale\": 4 of") {
		t.Fatalf("query did not match the 4 autoscale decisions:\n%s", first)
	}
}

func TestJSONExportIsValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.json")
	code, _, errOut := runCmd(t, "why", "-q", "kind=cordon,uncordon,autoscale", "-json", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bundle struct {
		Count   int `json:"count"`
		Records []struct {
			Kind string `json:"kind"`
		} `json:"records"`
	}
	if err := json.Unmarshal(b, &bundle); err != nil {
		t.Fatalf("exported bundle is not valid JSON: %v", err)
	}
	// 1 cordon + 1 uncordon + 4 autoscale actions.
	if bundle.Count != 6 || len(bundle.Records) != 6 {
		t.Fatalf("bundle has %d records, want 6", bundle.Count)
	}
}

func TestPerfettoExportIsValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.trace")
	code, _, errOut := runCmd(t, "why", "-q", "kind=place", "-perfetto", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var instants int
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "i" {
			instants++
		}
	}
	if instants != 10 {
		t.Fatalf("%d instant events, want 10 (one per placement)", instants)
	}
}
