package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestMatrixCasesCoverThePaperMatrix(t *testing.T) {
	cases := matrixCases(1)
	if want := 21 * 4 * 3; len(cases) != want {
		t.Fatalf("%d cases, want %d", len(cases), want)
	}
	modes := map[string]workload.SyncMode{}
	for i, mc := range cases {
		if mc.Strategy != core.Strategies()[i%4] {
			t.Fatalf("case %d: strategy %v breaks the vanilla-first group of four", i, mc.Strategy)
		}
		if i%4 != 0 && (mc.Seed != cases[i-1].Seed || mc.Bench.Name != cases[i-1].Bench.Name || mc.Hogs != cases[i-1].Hogs) {
			t.Fatalf("case %d: strategies of one group differ in inputs", i)
		}
		modes[mc.Bench.Name] = mc.Bench.DefaultMode()
	}
	var blocking, spinning int
	for _, m := range modes {
		switch m {
		case workload.SyncBlocking:
			blocking++
		case workload.SyncSpinning:
			spinning++
		}
	}
	if len(modes) != 21 || blocking != 12 || spinning != 9 {
		t.Fatalf("%d benchmarks, %d blocking, %d spinning; want 21, 12, 9", len(modes), blocking, spinning)
	}
}

func TestInputsAreFunctionsOfTheSeed(t *testing.T) {
	if !reflect.DeepEqual(seeds(matrixCases(7)), seeds(matrixCases(7))) {
		t.Error("host-matrix: same seed, different inputs")
	}
	if reflect.DeepEqual(seeds(matrixCases(7)), seeds(matrixCases(8))) {
		t.Error("host-matrix: seeds 7 and 8 give the same inputs")
	}
	if rackLoad(7) != rackLoad(7) {
		t.Error("rack: same seed, different inputs")
	}
	if rackLoad(7) == rackLoad(8) {
		t.Error("rack: seeds 7 and 8 give the same inputs")
	}
}

func seeds(cases []matrixCase) []uint64 {
	var out []uint64
	for _, mc := range cases {
		out = append(out, mc.Seed)
	}
	return out
}

func TestRackLoadValidAcrossSeeds(t *testing.T) {
	zones := map[int]bool{}
	for seed := uint64(0); seed < 500; seed++ {
		in := rackLoad(seed)
		if err := checkRoundTrip(in.Spec); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		spec, _ := topology.ParseLoadSpec(in.Spec)
		if spec.Zones != 2 || spec.HostsPerZone != 8 || len(spec.Outages) != 1 || spec.Alert == nil || spec.Autoscale == nil {
			t.Fatalf("seed %d: spec lost its shape: %s", seed, in.Spec)
		}
		o := spec.Outages[0]
		if o.At <= spec.Ramp[len(spec.Ramp)-1].At || o.At+o.For >= spec.Duration {
			t.Fatalf("seed %d: outage %v+%v not inside the run after the ramp", seed, o.At, o.For)
		}
		if strings.Contains(in.Spec, "lookahead") {
			t.Fatalf("seed %d: the seed must not set the lookahead", seed)
		}
		zones[o.Zone] = true
	}
	if len(zones) != 2 {
		t.Errorf("outage zones drawn: %v, want both", zones)
	}
}
