package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate refs.txt for seeds 0..refSeeds-1")

// refSeeds is how many seeds refs.txt covers.
const refSeeds = 32

// TestReferenceDigests checks that the shipped references still hold
// (seed 1 here; the benchmark checks whichever seed it runs), and that
// rack-outage and rack-observed agree on them. With -update it
// regenerates refs.txt, which takes several minutes.
func TestReferenceDigests(t *testing.T) {
	if *update {
		writeRefs(t)
	}
	refs, err := parseRefs(refsText)
	if err != nil {
		t.Fatal(err)
	}
	outage, observed := rackPass(1, false, false), rackPass(1, true, false)
	if outage.failed+observed.failed != 0 {
		t.Fatalf("rack passes failed: %v %v", outage.problems, observed.problems)
	}
	if outage.digest != observed.digest {
		t.Fatalf("rack-outage digest %016x != rack-observed %016x", outage.digest, observed.digest)
	}
	for _, k := range []string{"sim_p99_ms", "slo_viol_pct"} {
		if outage.model[k] != observed.model[k] {
			t.Errorf("%s: rack-outage %v != rack-observed %v", k, outage.model[k], observed.model[k])
		}
	}
	if want := refs["rack"][1]; outage.digest != want {
		t.Errorf("rack seed 1 digest %016x, reference %016x", outage.digest, want)
	}
	if testing.Short() {
		return
	}
	if p, want := matrixPass(1, false), refs["host-matrix"][1]; p.digest != want || p.failed != 0 {
		t.Errorf("host-matrix seed 1 digest %016x (%d failed), reference %016x", p.digest, p.failed, want)
	}
}

func writeRefs(t *testing.T) {
	var b strings.Builder
	b.WriteString("# reference digests: <ref> <seed> <hex digest>\n")
	for seed := uint64(0); seed < refSeeds; seed++ {
		outage, observed := rackPass(seed, false, false), rackPass(seed, true, false)
		if outage.failed+observed.failed != 0 || outage.digest != observed.digest {
			t.Fatalf("seed %d: rack passes disagree or fail: %v %v", seed, outage.problems, observed.problems)
		}
		fmt.Fprintf(&b, "rack %d %016x\n", seed, outage.digest)
	}
	for seed := uint64(0); seed < refSeeds; seed++ {
		p := matrixPass(seed, false)
		if p.failed != 0 {
			t.Fatalf("seed %d: host-matrix failed: %v", seed, p.problems)
		}
		fmt.Fprintf(&b, "host-matrix %d %016x\n", seed, p.digest)
	}
	if err := os.WriteFile("refs.txt", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	refsText = b.String()
}
