package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/span"
	"repro/internal/topology"
)

// TestObservabilityExportDigests pins every byte the outage rig's
// observability exports produce with the full decision log (all kinds,
// boost/preempt included) and request spans attached: the decision
// JSON bundle, its Perfetto export, and the span blame export (the
// Chrome span timeline plus the rendered blame bands). The files are
// far too large to commit, so testdata/observability.sha256 holds
// their SHA-256 digests; any change to a record's text, a candidate
// reason or a span segment fails here. Regenerate an intended change
// with:
//
//	go test ./internal/experiments -run TestObservabilityExportDigests -update
func TestObservabilityExportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full outage rig")
	}
	c, tr := runObserved(t)
	log := c.Decisions()
	recs := log.Records()
	if log.Dropped() != 0 || len(recs) == 0 {
		t.Fatalf("decision log: %d records, %d dropped", len(recs), log.Dropped())
	}

	got := map[string]string{
		"decisions.json": digest(t, func(w io.Writer) error {
			return decision.WriteJSON(w, recs, log.Dropped())
		}),
		"decisions.trace.json": digest(t, func(w io.Writer) error {
			return decision.WriteChromeTrace(w, recs)
		}),
		"spans.trace.json": digest(t, func(w io.Writer) error {
			return span.WriteChromeSpans(w, []span.TrackSet{{Name: "2z8h-outage", Spans: tr.Finished()}})
		}),
		"blame.txt": digest(t, func(w io.Writer) error {
			return writeBlame(w, span.Analyze(tr.Finished(), 0))
		}),
	}

	path := filepath.Join("testdata", "observability.sha256")
	if *update {
		var b strings.Builder
		for _, name := range []string{"decisions.json", "decisions.trace.json", "spans.trace.json", "blame.txt"} {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	sums, names := readDigests(t, path)
	if len(names) != len(got) {
		t.Fatalf("%s has %d digests, want %d", path, len(names), len(got))
	}
	for i, name := range names {
		if got[name] != sums[i] {
			t.Errorf("%s digest %s, want %s", name, got[name], sums[i])
		}
	}
}

// readDigests reads a sha256sum-style file: one "<digest>  <name>" per
// line, returned in file order.
func readDigests(t *testing.T, path string) (sums, names []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no digests (run with -update to create): %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		sums = append(sums, sum)
		names = append(names, name)
	}
	return sums, names
}

// runObserved runs the rig RunWhy runs, with every decision kind and a
// span tracer attached.
func runObserved(t *testing.T) (*cluster.Cluster, *span.Tracer) {
	t.Helper()
	spec, err := topology.ParseLoadSpec(ScaleOutageSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ScaleConfig(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := span.NewTracer()
	cfg.Spans = tr
	cfg.Decisions = &decision.Options{Kinds: decision.AllKinds()}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Finished()); int64(n) != res.Served || tr.Open() != 0 {
		t.Fatalf("%d spans finished (%d open) for %d served", n, tr.Open(), res.Served)
	}
	return c, tr
}

// writeBlame renders the blame analysis: conservation, then each band's
// cohort size, latency floor and per-category shares.
func writeBlame(w io.Writer, a *span.Analysis) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "requests=%d violations=%d max-error=%v\n", a.Requests, a.Violations, a.MaxError)
	for _, b := range a.Bands {
		fmt.Fprintf(bw, "%s n=%d wall=%v", b.Label, b.Requests, b.Wall)
		for _, sh := range b.Shares {
			fmt.Fprintf(bw, " %s=%v/%.6f", sh.Cat, sh.Time, sh.Share)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// digest returns the hex SHA-256 of what write produces.
func digest(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
