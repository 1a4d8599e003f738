package trace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the Chrome trace goldens")

// TestChromeTraceGolden pins the exact bytes of the trace.Log lowering:
// two vCPU tracks, an instant, an event past the window, and a running
// slice still open at the window edge (closed there).
func TestChromeTraceGolden(t *testing.T) {
	log := trace.NewLog(0)
	log.Record(1*sim.Millisecond, trace.KindVCPUState, "fg/v1", "blocked -> runnable")
	log.Record(1500*sim.Microsecond, trace.KindVCPUState, "fg/v0", "blocked -> runnable")
	log.Recordf(2*sim.Millisecond, trace.KindSwitch, "p0", "run %s (%s)", trace.Str("fg/v1"), trace.Str("UNDER"))
	log.Record(2*sim.Millisecond, trace.KindVCPUState, "fg/v1", "runnable -> running")
	log.Recordf(3*sim.Millisecond+250, trace.KindSA, "fg/v1", "acked after %s (%s)", trace.Dur(20*sim.Microsecond), trace.Str("blocked"))
	log.Record(4*sim.Millisecond, trace.KindVCPUState, "fg/v1", "running -> blocked")
	log.Record(5*sim.Millisecond, trace.KindVCPUState, "fg/v0", "runnable -> running")
	log.Record(6*sim.Millisecond, trace.KindVCPUState, "fg/v0", "malformed")
	log.Record(20*sim.Millisecond, trace.KindNote, "outside", "beyond window")

	var buf bytes.Buffer
	if err := log.WriteChromeTrace(&buf, 0, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_log.golden.json", buf.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\n got: %s\nwant: %s", path, got, want)
	}
}
