package main

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// perLayerDefs lists the --trace 1 metrics in report order. Metrics
// that do not apply to a workload (windows on host-matrix, core timing
// on the racks, spans off rack-observed) read 0.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, k := range attributionKeys() {
		defs = append(defs, metricDef{k + ".cpu_share", "frac"}, metricDef{k + ".ns_per_event", "ns"})
	}
	return append(defs, []metricDef{
		{"runtime.malloc_share", "frac"},
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.allocs_per_event", "count"},
		{"sim.bytes_per_event", "B"},
		{"sim.windows", "count"},
		{"sim.window_samples", "count"},
		{"sim.active_shards_per_window", "count"},
		{"sim.events_per_window", "count"},
		{"sim.window_us_p50", "us"},
		{"sim.window_us_p9999", "us"},
		{"sim.idle_cpu_frac", "frac"},
		{"runtime.sched_latency_us_p99", "us"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.gc_cycles", "count"},
		{"core.runs", "count"},
		{"core.run_ms_p50", "ms"},
		{"core.run_ms_p90", "ms"},
		{"core.build_us", "us"},
		{"cluster.new_ms", "ms"},
		{"topology.parse_us", "us"},
		{"hypervisor.sa_sent", "count"},
		{"hypervisor.sa_ack_ratio", "frac"},
		{"hypervisor.ple_yields", "count"},
		{"hypervisor.vcpu_migrations", "count"},
		{"guest.lhp", "count"},
		{"guest.lwp", "count"},
		{"guest.task_migrations", "count"},
		{"cluster.migrations", "count"},
		{"cluster.failover", "count"},
		{"cluster.scale_events", "count"},
		{"watch.alerts", "count"},
		{"span.spans", "count"},
		{"decision.records", "count"},
		{"decision.dropped", "count"},
		{"model.sim_p99_ms", "ms"},
		{"model.slo_viol_pct", "%"},
		{"model.irs_gain_pct", "%"},
		{"bench.trace_overhead_frac", "frac"},
	}...)
}

// perLayer computes the --trace 1 metrics. Everything except the
// trace overhead comes from the traced passes; the overhead compares
// their host run time with the untraced passes'.
func (m *measurement) perLayer() map[string]metricValue {
	t, u := m.selectPasses(true), m.selectPasses(false)
	v := map[string]float64{}

	var events uint64
	for _, i := range t {
		events += m.passes[i].events
	}
	shares := m.prof.shares()
	for _, k := range attributionKeys() {
		v[k+".cpu_share"] = shares[k]
		if events > 0 {
			v[k+".ns_per_event"] = float64(m.prof.cpuNs[k]) / float64(events)
		}
	}
	if m.prof.totalNs > 0 {
		v["runtime.malloc_share"] = float64(m.prof.mallocNs) / float64(m.prof.totalNs)
	}

	first := m.passes[t[0]]
	v["sim.events"] = float64(first.events)
	if wall := m.wallS(t); wall > 0 {
		v["sim.events_per_s"] = float64(first.events) / wall
	}
	if first.events > 0 {
		v["sim.allocs_per_event"] = m.medianOf(t, func(i int) float64 { return float64(m.rt[i].allocObjects) / float64(m.passes[i].events) })
		v["sim.bytes_per_event"] = m.medianOf(t, func(i int) float64 { return float64(m.rt[i].allocBytes) / float64(m.passes[i].events) })
	}

	var windows, active, wevents int64
	var hostUs []float64
	for _, i := range t {
		if wp := m.passes[i].windows; wp != nil {
			windows += wp.windows
			active += wp.activeShards
			wevents += wp.events
			for _, ns := range wp.hostNs {
				hostUs = append(hostUs, float64(ns)/1e3)
			}
		}
	}
	if first.windows != nil {
		v["sim.windows"] = float64(first.windows.windows)
	}
	v["sim.window_samples"] = float64(len(hostUs))
	if windows > 0 {
		v["sim.active_shards_per_window"] = float64(active) / float64(windows)
		v["sim.events_per_window"] = float64(wevents) / float64(windows)
	}
	sort.Float64s(hostUs)
	v["sim.window_us_p50"] = percentile(hostUs, 50)
	v["sim.window_us_p9999"] = percentile(hostUs, 99.99)

	var cpuTotal, cpuIdle, cpuGC float64
	var sched []uint64
	var buckets []float64
	for _, i := range t {
		d := m.rt[i]
		cpuTotal += d.cpuTotal
		cpuIdle += d.cpuIdle
		cpuGC += d.cpuGC
		if sched == nil {
			sched, buckets = make([]uint64, len(d.schedCounts)), d.schedBuckets
		}
		for j := range d.schedCounts {
			if j < len(sched) {
				sched[j] += d.schedCounts[j]
			}
		}
	}
	if cpuTotal > 0 {
		v["sim.idle_cpu_frac"] = cpuIdle / cpuTotal
	}
	if busy := cpuTotal - cpuIdle; busy > 0 {
		v["runtime.gc_cpu_frac"] = cpuGC / busy
	}
	v["runtime.sched_latency_us_p99"] = histQuantile(sched, buckets, 0.99) * 1e6
	v["runtime.gc_cycles"] = m.medianOf(t, func(i int) float64 { return float64(m.rt[i].gcCycles) })

	var runs, builds []float64
	var news, parses []float64
	for _, i := range t {
		p := m.passes[i]
		if len(p.builds) > 0 {
			for _, d := range p.run {
				runs = append(runs, float64(d.Microseconds())/1e3)
			}
			for _, d := range p.builds {
				builds = append(builds, float64(d.Nanoseconds())/1e3)
			}
		}
		if p.newDur > 0 {
			news = append(news, float64(p.newDur.Nanoseconds())/1e6)
			parses = append(parses, float64(p.parse.Nanoseconds())/1e3)
		}
	}
	sort.Float64s(runs)
	v["core.runs"] = float64(len(runs))
	v["core.run_ms_p50"] = percentile(runs, 50)
	v["core.run_ms_p90"] = percentile(runs, 90)
	v["core.build_us"] = median(builds)
	v["cluster.new_ms"] = median(news)
	v["topology.parse_us"] = median(parses)

	for k, x := range first.counts {
		v[k] = x
	}
	if sent := first.counts["hypervisor.sa_sent"]; sent > 0 {
		v["hypervisor.sa_ack_ratio"] = first.counts["hypervisor.sa_acked"] / sent
	}
	for k, x := range first.model {
		v["model."+k] = x
	}
	if base := m.wallS(u); base > 0 {
		v["bench.trace_overhead_frac"] = m.wallS(t)/base - 1
	}

	out := map[string]metricValue{}
	for _, d := range perLayerDefs() {
		out[d.name] = metricValue{v[d.name], d.unit}
	}
	return out
}

// checkRoundTrip requires a generated load spec to survive
// ParseLoadSpec → String → ParseLoadSpec unchanged.
func checkRoundTrip(text string) error {
	spec, err := topology.ParseLoadSpec(text)
	if err != nil {
		return fmt.Errorf("generated load spec does not parse: %w", err)
	}
	again, err := topology.ParseLoadSpec(spec.String())
	if err != nil {
		return fmt.Errorf("load spec String() does not parse: %w", err)
	}
	if again.String() != spec.String() {
		return fmt.Errorf("load spec does not round-trip:\n%s\n%s", spec.String(), again.String())
	}
	return nil
}
