package span

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the Chrome span golden")

// TestWriteChromeSpansGolden pins the exact bytes of the span export:
// two track sets (two processes), nested phase and segment slices, and
// an unfinished span that must be skipped.
func TestWriteChromeSpansGolden(t *testing.T) {
	tr := NewTracer()
	a := mkSpan(tr, us(100), us(50), us(30))
	open := tr.Start(us(150))
	open.BeginPhase(us(150), "service", CatService)
	b := tr.Start(us(200))
	b.BeginPhase(us(200), "queue", CatQueueWait)
	b.BeginPhase(us(260), "service", CatService)
	b.Transition(us(300), CatPreemptWait)
	b.Finish(us(340))
	c := mkSpan(tr, us(500), us(40), 0)

	var buf bytes.Buffer
	err := WriteChromeSpans(&buf, []TrackSet{
		{Name: "vanilla", Spans: []*Span{a, open, b}},
		{Name: "irs", Spans: []*Span{c, nil}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_spans.golden.json")
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
