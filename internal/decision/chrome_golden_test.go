package decision

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the Chrome decision golden")

// TestWriteChromeTraceGolden pins the exact bytes of the decision
// export: two chooser tracks in first-appearance order, an unscored
// decision, and a scored one carrying its margin.
func TestWriteChromeTraceGolden(t *testing.T) {
	recs := append(exportRecs(), Record{
		At: 6*sim.Second + 400*sim.Microsecond, Shard: 3, Seq: 0, Kind: KindPreempt,
		Chooser: "host2", Subject: "web/v1", Winner: "batch/v0",
		Detail:     Text{format: "timeslice expiry"},
		Candidates: []Candidate{{Name: "batch/v0", Score: -1.5}, {Name: "web/v1", Score: 0.25}},
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_decisions.golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s changed:\n got: %s\nwant: %s", path, buf.Bytes(), want)
	}
}
