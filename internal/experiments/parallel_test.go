package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// detOpt builds the shared options of the determinism tests. Workers
// is set explicitly: Workers == 0 would resolve to GOMAXPROCS, which
// on a single-CPU machine silently degrades to the serial path and
// tests nothing.
func detOpt(workers int) Options {
	return Options{Runs: 1, Seed: 11, Workers: workers}
}

// determinismCases picks cheap but structurally diverse builders:
// measure-based figures (fig1a), direct-rig jobs (fig1b), per-run jobs
// (fig2), multi-value jobs (fig8, sadelay), whole-point jobs
// (ab-salimit, ab-ticket), row-rendering workers (obs, chaos), and the
// claim matrix with its job-sharing across checks.
func determinismCases() map[string]func(Options) Table {
	return map[string]func(Options) Table{
		"fig1a":      Fig1a,
		"fig1b":      Fig1b,
		"fig2":       Fig2,
		"fig8":       Fig8,
		"sadelay":    SADelay,
		"ab-salimit": AblationSALimit,
		"ab-ticket":  AblationTicketLock,
		"obs":        ObsCounters,
		"chaos":      Chaos,
		"claims":     EvaluateClaims,
	}
}

// TestParallelMatchesSerial pins the harness's core guarantee: the
// parallel collect/execute/replay path renders byte-identical tables to
// the serial path, and two parallel runs (with different worker counts,
// hence different completion orders) are identical to each other.
func TestParallelMatchesSerial(t *testing.T) {
	cases := determinismCases()
	ids := make([]string, 0, len(cases))
	for id := range cases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fn := cases[id]
		t.Run(id, func(t *testing.T) {
			serial := fn(detOpt(1)).String()
			par4 := fn(detOpt(4)).String()
			par3 := fn(detOpt(3)).String()
			if par4 != serial {
				t.Errorf("parallel (4 workers) output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par4)
			}
			if par3 != par4 {
				t.Errorf("parallel runs differ between worker counts:\n--- 4 workers ---\n%s--- 3 workers ---\n%s", par4, par3)
			}
		})
	}
}

// TestAllParallelMatchesSerial renders the full paper-figure set with
// four workers and checks it, table by table, against
// testdata/all.sha256: one SHA-256 per table of the serial render. The
// serial path itself stays pinned by TestParallelMatchesSerial and the
// goldens, so one parallel pass stands in for a serial+parallel pair,
// and a drift that hits both paths alike fails here too. Expensive
// (one `irs sim -runs 1 all`-sized pass), so -short skips it.
// Regenerate an intended change from a serial render with:
//
//	go test ./internal/experiments -run TestAllParallelMatchesSerial -update
func TestAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full experiments.All determinism sweep in -short mode")
	}
	path := filepath.Join("testdata", "all.sha256")
	tableDigest := func(tb Table) string {
		return digest(t, func(w io.Writer) error {
			_, err := io.WriteString(w, tb.String())
			return err
		})
	}
	if *update {
		var b strings.Builder
		for _, tb := range All(detOpt(1)) {
			fmt.Fprintf(&b, "%s  %s\n", tableDigest(tb), tb.ID)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	sums, ids := readDigests(t, path)
	tables := All(detOpt(4))
	if len(tables) != len(ids) {
		t.Fatalf("experiments.All rendered %d tables, %s has %d", len(tables), path, len(ids))
	}
	for i, tb := range tables {
		if tb.ID != ids[i] || tableDigest(tb) != sums[i] {
			t.Fatalf("table %d (%s) of the 4-worker render differs from the serial digest for %s:\n%s", i, tb.ID, ids[i], tb)
		}
	}
}
