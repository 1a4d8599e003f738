package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Construction-cost benchmarks. A Build that follows a Run costs more
// than one in a tight loop: the run leaves the caches cold and, through
// its garbage, triggers the GC cycles that flush the allocator's
// per-CPU caches. End-to-end harnesses that time every Build of a
// run-heavy loop see that second figure, so both are tracked.

// buildScenario is one host-matrix cell: a 4-vCPU streamcluster VM
// next to two pinned hogs under PLE. The horizon keeps the run in
// BenchmarkBuildAfterRun short; it does not affect construction.
func buildScenario(b *testing.B) core.Scenario {
	bench, ok := workload.ByName("streamcluster")
	if !ok {
		b.Fatal("streamcluster not in catalog")
	}
	scn := scenario(bench, 0, core.StrategyPLE, 2, 1)
	scn.Horizon = 5 * sim.Millisecond
	return scn
}

// BenchmarkBuild times back-to-back Builds: warm caches, no GC churn.
func BenchmarkBuild(b *testing.B) {
	scn := buildScenario(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(scn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildAfterRun times only the Build that follows a Run of the
// previous cluster.
func BenchmarkBuildAfterRun(b *testing.B) {
	scn := buildScenario(b)
	b.ReportAllocs()
	cl, err := core.Build(scn)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := cl.Run(); err != nil && !errors.Is(err, core.ErrUnfinished) {
			b.Fatal(err)
		}
		b.StartTimer()
		if cl, err = core.Build(scn); err != nil {
			b.Fatal(err)
		}
	}
}
