package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topology"
)

// passResult is what one pass over a workload measured. Host times
// are wall-clock on this machine; everything under model and counts is
// simulated output and repeats exactly for a seed.
type passResult struct {
	setup  time.Duration   // input generation + parse/compile + Build/New
	run    []time.Duration // host time inside each simulation's Run
	builds []time.Duration // core.Build, per simulation (host-matrix)
	parse  time.Duration   // topology.ParseLoadSpec (rack)
	newDur time.Duration   // cluster.New (rack)

	sims, failed int
	problems     []string // why simulations failed, for the report
	digest       uint64   // every simulated statistic of the pass
	events       uint64

	model  map[string]float64 // modelled (simulated-time) metrics
	counts map[string]float64 // model-activity counts

	windows *windowProbe // barrier probe, traced rack passes only
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// workloadDef is one named benchmark workload. Why each exists, and
// which per-layer metrics should move on it, is in METRICS.md.
type workloadDef struct {
	name string
	// ref names the shipped reference digests the workload must
	// reproduce; both rack workloads share one.
	ref string
	// setup performs only the set-up half of a pass and returns its
	// host time; setup-only rounds steady the setup_s median.
	setup func(seed uint64) (time.Duration, error)
	pass  func(seed uint64, traced bool) passResult
}

var workloads = []workloadDef{
	{
		name:  "host-matrix",
		ref:   "host-matrix",
		setup: matrixSetup,
		pass:  matrixPass,
	},
	{
		name:  "rack-outage",
		ref:   "rack",
		setup: func(seed uint64) (time.Duration, error) { return rackSetup(seed, false) },
		pass:  func(seed uint64, traced bool) passResult { return rackPass(seed, false, traced) },
	},
	{
		name:  "rack-observed",
		ref:   "rack",
		setup: func(seed uint64) (time.Duration, error) { return rackSetup(seed, true) },
		pass:  func(seed uint64, traced bool) passResult { return rackPass(seed, true, traced) },
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// digester folds simulated statistics into an FNV-64a digest.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) add(vals ...any) { fmt.Fprintln(d.h, vals...) }

func (d *digester) sum() uint64 { return d.h.Sum64() }

func matrixSetup(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	for _, mc := range matrixCases(seed) {
		if _, err := core.Build(mc.scenario()); err != nil {
			return 0, fmt.Errorf("%s: %w", mc, err)
		}
	}
	return time.Since(t0), nil
}

// matrixPass runs every host-matrix case once, one at a time.
func matrixPass(seed uint64, _ bool) passResult {
	t0 := time.Now()
	cases := matrixCases(seed)
	p := passResult{setup: time.Since(t0), model: map[string]float64{}, counts: map[string]float64{}}
	d := newDigester()
	// fg runtime per case, for the IRS-over-vanilla gain.
	fg := make([]float64, len(cases))
	var saSent, saAcked, ple, vmig, lhp, lwp, tmig int64
	for i, mc := range cases {
		p.sims++
		tb := time.Now()
		cl, err := core.Build(mc.scenario())
		build := time.Since(tb)
		p.setup += build
		p.builds = append(p.builds, build)
		if err != nil {
			p.run = append(p.run, 0)
			p.fail("%s: build: %v", mc, err)
			continue
		}
		tr := time.Now()
		res, err := cl.Run()
		p.run = append(p.run, time.Since(tr))
		if err != nil {
			p.fail("%s: %v", mc, err)
			continue
		}
		fgr := res.VM("fg")
		if fgr == nil || fgr.Runtime <= 0 || fgr.Completions < 1 || res.Violations != 0 {
			p.fail("%s: foreground did not complete cleanly", mc)
			continue
		}
		fg[i] = fgr.Runtime.Seconds()
		p.events += res.Events
		saSent += res.SASent
		saAcked += res.SAAcked
		ple += cl.HV.PLEYields()
		vmig += res.VCPUMigrations
		d.add(mc.String(), res.Elapsed, res.SASent, res.SAAcked, res.SAExpired, res.SAPending, res.SAFallbacks,
			res.SAMeanDelay, res.SAMaxDelay, res.VCPUMigrations, res.Events, res.Violations, cl.HV.PLEYields())
		for _, vr := range res.VMs {
			lhp += vr.LHP
			lwp += vr.LWP
			tmig += vr.TaskMigrations
			d.add(vr.Name, vr.Runtime, vr.MeanRuntime, vr.Completions, vr.CPUTime, vr.StealTime,
				vr.LHP, vr.LWP, vr.IRSMigrations, vr.TaskMigrations)
		}
	}
	p.digest = d.sum()
	// Cases come in groups of the four strategies (vanilla first) per
	// benchmark and hog level.
	var gains []float64
	strategies := len(core.Strategies())
	for i := 0; i+strategies <= len(cases); i += strategies {
		for j := i; j < i+strategies; j++ {
			if cases[j].Strategy == core.StrategyIRS && fg[i] > 0 && fg[j] > 0 {
				gains = append(gains, metrics.Improvement(fg[i], fg[j]))
			}
		}
	}
	p.model["irs_gain_pct"] = metrics.Summarize(gains).Mean
	p.counts["hypervisor.sa_sent"] = float64(saSent)
	p.counts["hypervisor.sa_acked"] = float64(saAcked)
	p.counts["hypervisor.ple_yields"] = float64(ple)
	p.counts["hypervisor.vcpu_migrations"] = float64(vmig)
	p.counts["guest.lhp"] = float64(lhp)
	p.counts["guest.lwp"] = float64(lwp)
	p.counts["guest.task_migrations"] = float64(tmig)
	return p
}

// rackConfig generates, parses and compiles the rack input for seed.
// observed selects the serial coordinator with spans and a full
// decision log; otherwise the run uses a shard-worker pool of 2.
func rackConfig(seed uint64, observed bool) (cfg cluster.Config, tr *span.Tracer, parse time.Duration, err error) {
	in := rackLoad(seed)
	tp := time.Now()
	spec, err := topology.ParseLoadSpec(in.Spec)
	parse = time.Since(tp)
	if err != nil {
		return cluster.Config{}, nil, 0, fmt.Errorf("load spec: %w", err)
	}
	if cfg, err = experiments.ScaleConfig(spec, in.Seed); err != nil {
		return cluster.Config{}, nil, 0, err
	}
	cfg.Shards = 2
	if observed {
		cfg.Shards = 1
		tr = span.NewTracer()
		cfg.Spans = tr
		cfg.Decisions = &decision.Options{Kinds: decision.AllKinds()}
	}
	return cfg, tr, parse, nil
}

func rackSetup(seed uint64, observed bool) (time.Duration, error) {
	t0 := time.Now()
	cfg, _, _, err := rackConfig(seed, observed)
	if err != nil {
		return 0, err
	}
	if _, err := cluster.New(cfg); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// rackPass runs the rack load once. A traced pass attaches the barrier
// probe, which reads only clocks and counters.
func rackPass(seed uint64, observed, traced bool) passResult {
	p := passResult{sims: 1, model: map[string]float64{}, counts: map[string]float64{}}
	t0 := time.Now()
	cfg, tr, parse, err := rackConfig(seed, observed)
	p.parse = parse
	if err != nil {
		p.fail("%v", err)
		return p
	}
	tn := time.Now()
	c, err := cluster.New(cfg)
	p.newDur = time.Since(tn)
	p.setup = time.Since(t0)
	if err != nil {
		p.fail("cluster.New: %v", err)
		return p
	}
	if traced {
		p.windows = newWindowProbe(c.Sharded())
	}
	tr0 := time.Now()
	if p.windows != nil {
		p.windows.start()
	}
	res, err := c.Run()
	p.run = []time.Duration{time.Since(tr0)}
	if err != nil {
		p.fail("run: %v", err)
		return p
	}
	p.events = res.Events
	if res.Generated <= 0 || res.Served+res.Unserved != res.Generated || res.Unserved != 0 {
		p.fail("requests not conserved: generated %d served %d unserved %d", res.Generated, res.Served, res.Unserved)
	}
	if res.Violations != 0 {
		p.fail("%d invariant violations", res.Violations)
	}

	hv := map[string]int64{}
	for _, h := range c.Hosts() {
		h.Reg.Visit(func(name string, _ obs.Labels, ctr *obs.Counter, _ *obs.Gauge, _ *obs.Histogram, _ *obs.Sketch) {
			if ctr != nil {
				hv[name] += ctr.Value()
			}
		})
	}
	// The shared digest covers the cluster result and the per-host
	// model counters; it must not depend on observability, so
	// rack-outage and rack-observed agree on it for every seed.
	d := newDigester()
	d.add(res.Generated, res.Served, res.Unserved, res.P50, res.P99, res.P999, res.MeanLatency,
		res.SLOViolations, res.Migrations, res.Blackouts, res.FaultsInjected, res.Violations, res.Events,
		res.Zones, res.ZoneOutages, res.Failover, res.Replicas, res.ScaleUps, res.ScaleDowns, res.Alerts)
	for _, h := range res.Hosts {
		d.add(h.ID, h.Committed, h.VMs)
	}
	for _, ph := range res.Phases {
		d.add(ph.Served, ph.Violations)
	}
	for _, k := range rackCounters {
		d.add(k, hv[k])
	}
	p.digest = d.sum()

	if observed {
		spans, log := len(tr.Finished()), c.Decisions()
		if int64(spans) != res.Served || tr.Open() != 0 {
			p.fail("span tracer finished %d spans (%d open) for %d served requests", spans, tr.Open(), res.Served)
		}
		if log.Dropped() != 0 {
			p.fail("decision log dropped %d records", log.Dropped())
		}
		p.counts["span.spans"] = float64(spans)
		p.counts["decision.records"] = float64(len(log.Records()))
		p.counts["decision.dropped"] = float64(log.Dropped())
	}
	p.model["sim_p99_ms"] = float64(res.P99) / float64(sim.Millisecond)
	p.model["slo_viol_pct"] = res.SLORate * 100
	p.counts["hypervisor.sa_sent"] = float64(hv["hv_sa_sent_total"])
	p.counts["hypervisor.sa_acked"] = float64(hv["hv_sa_acked_total"])
	p.counts["hypervisor.ple_yields"] = float64(hv["hv_ple_yields_total"])
	p.counts["hypervisor.vcpu_migrations"] = float64(hv["hv_vcpu_migrations_total"])
	p.counts["guest.lhp"] = float64(hv["hv_lhp_total"])
	p.counts["guest.lwp"] = float64(hv["hv_lwp_total"])
	p.counts["guest.task_migrations"] = float64(hv["guest_task_migrations_total"])
	p.counts["cluster.migrations"] = float64(res.Migrations)
	p.counts["cluster.failover"] = float64(res.Failover)
	p.counts["cluster.scale_events"] = float64(res.ScaleUps + res.ScaleDowns)
	p.counts["watch.alerts"] = float64(res.Alerts)
	return p
}

// rackCounters are the per-host model counters folded into the rack
// digest, in a fixed order.
var rackCounters = []string{
	"guest_task_migrations_total", "guest_irs_migrations_total", "hv_ctx_switches_total",
	"hv_lhp_total", "hv_lwp_total", "hv_ple_yields_total", "hv_preemptions_total",
	"hv_sa_acked_total", "hv_sa_expired_total", "hv_sa_sent_total", "hv_vcpu_migrations_total",
}
