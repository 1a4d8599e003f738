// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each benchmark regenerates its figure on the
// simulator and reports headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Figures with large matrices run
// one simulated repetition per data point (pass -runs via `irs sim` for
// the averaged version).
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func benchOpts() experiments.Options {
	return experiments.Options{Runs: 1, Seed: 1}
}

// reportCells parses numeric cells of a result table into metrics such
// as the maximum/mean improvement, so benchmark output carries the
// figure's headline numbers.
func reportCells(b *testing.B, tb experiments.Table) {
	b.Helper()
	var vals []float64
	for _, row := range tb.Rows {
		for _, cell := range row {
			s := strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%")
			s = strings.TrimSuffix(s, "ms")
			s = strings.TrimSuffix(s, "s")
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				vals = append(vals, v)
			}
		}
	}
	if len(vals) == 0 {
		return
	}
	min, max, sum := vals[0], vals[0], 0.0
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	b.ReportMetric(max, "max")
	b.ReportMetric(min, "min")
	b.ReportMetric(sum/float64(len(vals)), "mean")
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	var tb experiments.Table
	for i := 0; i < b.N; i++ {
		var ok bool
		tb, ok = experiments.ByID(id, benchOpts())
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
	reportCells(b, tb)
}

// BenchmarkFig1a regenerates Figure 1(a): slowdown of ua/raytrace/
// fluidanimate under one interfering vCPU.
func BenchmarkFig1a(b *testing.B) { runFigure(b, "fig1a") }

// BenchmarkFig1b regenerates Figure 1(b): the process-migration latency
// staircase (≈ one 30 ms scheduling delay per co-located VM).
func BenchmarkFig1b(b *testing.B) { runFigure(b, "fig1b") }

// BenchmarkFig2 regenerates Figure 2: CPU utilization relative to fair
// share for blocking workloads under interference.
func BenchmarkFig2(b *testing.B) { runFigure(b, "fig2") }

// BenchmarkFig5 regenerates Figure 5: PARSEC (blocking) improvement
// matrix for PLE / relaxed-co / IRS at 1/2/4-inter × 3 interference
// sources.
func BenchmarkFig5(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6: NPB (spinning) improvement matrix.
func BenchmarkFig6(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7: weighted speedup of consolidated
// PARSEC pairs.
func BenchmarkFig7(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8: server throughput and latency
// improvement under IRS.
func BenchmarkFig8(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9: weighted speedup of consolidated
// NPB pairs.
func BenchmarkFig9(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10: IRS improvement vs number of
// interfered vCPUs on 8-vCPU VMs.
func BenchmarkFig10(b *testing.B) { runFigure(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11: IRS improvement vs number of
// stacked interfering VMs.
func BenchmarkFig11(b *testing.B) { runFigure(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12: NPB under CPU stacking
// (unpinned vCPUs).
func BenchmarkFig12(b *testing.B) { runFigure(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13: PARSEC under CPU stacking
// (deceptive idleness).
func BenchmarkFig13(b *testing.B) { runFigure(b, "fig13") }

// BenchmarkSADelay regenerates the §3.1 micro-measurement: the 20-26 µs
// scheduler-activation processing delay.
func BenchmarkSADelay(b *testing.B) { runFigure(b, "sadelay") }

// BenchmarkAblationIRSPull compares push-based IRS with the §6
// pull-based extension.
func BenchmarkAblationIRSPull(b *testing.B) { runFigure(b, "ab-pull") }

// BenchmarkAblationSALimit sweeps the SA hard limit.
func BenchmarkAblationSALimit(b *testing.B) { runFigure(b, "ab-salimit") }

// BenchmarkAblationTicketLock shows LWP amplification by FIFO ticket
// locks versus TAS spinlocks.
func BenchmarkAblationTicketLock(b *testing.B) { runFigure(b, "ab-ticket") }

// BenchmarkAblationSpinBlock sweeps the blocking primitives' pre-sleep
// spin budget against PLE.
func BenchmarkAblationSpinBlock(b *testing.B) { runFigure(b, "ab-spinblock") }

// BenchmarkAblationStrictCo contrasts ESX 2.x strict co-scheduling with
// vanilla and IRS (gang slots vs CPU fragmentation).
func BenchmarkAblationStrictCo(b *testing.B) { runFigure(b, "ab-strictco") }

// BenchmarkObsCounters regenerates the telemetry-counter table: the
// registry-measured steal times, preemption-wait percentiles, SA round
// trips, and LHP/LWP counts behind the §5 end-to-end numbers.
func BenchmarkObsCounters(b *testing.B) { runFigure(b, "obs") }

// BenchmarkChaos regenerates the robustness sweep: vIRQ/hypercall
// fault rates vs every strategy, with per-run invariant audits.
func BenchmarkChaos(b *testing.B) { runFigure(b, "chaos") }
