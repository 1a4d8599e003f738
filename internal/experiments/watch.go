package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/watch"
)

// The watch experiment exercises the online SLO watchdog end to end: a
// two-host rack runs a sensitive server quietly for four seconds, then
// (in the bully variant) a fat CPU hog lands on the server's host. The
// router's violation stream must trip the burn-rate rule within one
// slow window, and the attribution engine must finger the bully — not
// the small co-resident hog, and never the hog on the other host. The
// quiet variant pins the other half of the contract: no contention, no
// alerts, no incidents.

// Watchdog rig knobs, shared with cmd/irswatch.
const (
	// DefaultWatchDuration is the request-stream duration; the bully
	// lands at WatchBullyArrive, leaving several slow windows of
	// contention before the stream ends.
	DefaultWatchDuration = 10 * sim.Second
	// WatchBullyArrive is when the bully lands on the server's host.
	WatchBullyArrive = 4 * sim.Second
	// DefaultWatchRules is the burn-rate rule the rig evaluates: page
	// when >3x the 2% violation budget burns over both the 500ms fast
	// window and the 2.5s slow window.
	DefaultWatchRules = "page:budget=0.02,fast=500ms,slow=2500ms,burn=3"
	// DefaultWatchInterval is the watch epoch cadence / window width.
	DefaultWatchInterval = 100 * sim.Millisecond
)

// WatchVariant is one row of the watch table.
type WatchVariant struct {
	Name  string
	Bully bool
}

// WatchVariants lists the comparison rows in table order.
func WatchVariants() []WatchVariant {
	return []WatchVariant{
		{Name: "quiet", Bully: false},
		{Name: "bully", Bully: true},
	}
}

// WatchVariantByName resolves a variant by its table name.
func WatchVariantByName(name string) (WatchVariant, bool) {
	for _, v := range WatchVariants() {
		if v.Name == name {
			return v, true
		}
	}
	return WatchVariant{}, false
}

// WatchConfig materialises the watchdog rig for one variant: two
// 4-pCPU hosts under least-loaded placement (no migration — the point
// is to watch the pain, not dodge it). Arrival order is engineered so
// the sensitive server shares its host with one small hog while a
// bigger hog sits across the rack: srv0 (2 vCPUs) -> h0, ant-far
// (3 vCPUs) -> h1, ant-near (1 vCPU) -> h0; the bully (4 vCPUs) then
// ties 3=3 and lands on h0 next to the victim. rules comes from
// ParseRules format; duration lets the CLI shorten the run.
func WatchConfig(v WatchVariant, seed uint64, duration sim.Time, rules []watch.Rule, interval sim.Time) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.Hosts = 2
	cfg.PCPUsPerHost = 4
	cfg.Policy = cluster.LeastLoaded
	cfg.Strategy = hypervisor.StrategyVanilla
	cfg.Overcommit = 2.0
	cfg.Migration = false
	cfg.Invariants = true
	cfg.Duration = duration
	cfg.Drain = 2 * sim.Second
	cfg.Arrival = 1 * sim.Millisecond
	cfg.Service = 1500 * sim.Microsecond
	cfg.SLO = 30 * sim.Millisecond
	cfg.VMs = []cluster.VMSpec{
		{Name: "srv0", Kind: cluster.KindServer, VCPUs: 2, Sensitive: true, Pressure: 0.8},
		{Name: "ant-far", Kind: cluster.KindAntagonist, VCPUs: 3, ArriveAt: 100 * sim.Millisecond, Pressure: 3},
		{Name: "ant-near", Kind: cluster.KindAntagonist, VCPUs: 1, ArriveAt: 200 * sim.Millisecond, Pressure: 1},
	}
	if v.Bully {
		// The bully buys its way to the CPU: 4 vCPUs at 8x the default
		// credit weight, so it takes ~2/3 of the host the moment it
		// lands instead of splitting the rack three ways.
		cfg.VMs = append(cfg.VMs, cluster.VMSpec{
			Name: "bully", Kind: cluster.KindAntagonist, VCPUs: 4, Weight: 2048,
			ArriveAt: WatchBullyArrive, Pressure: 4,
		})
	}
	cfg.Spans = span.NewTracer()
	cfg.Watch = &watch.Config{Interval: interval, Rules: rules}
	return cfg
}

// DefaultWatchRuleSet parses DefaultWatchRules; the constant is
// compile-time fixed, so a parse failure is a programming error.
func DefaultWatchRuleSet() []watch.Rule {
	rules, err := watch.ParseRules(DefaultWatchRules)
	if err != nil {
		panic("experiments: bad DefaultWatchRules: " + err.Error())
	}
	return rules
}

// NewWatchCluster builds the watchdog rig for one variant with the
// default knobs. cmd/irswatch layers its flag overrides on top of
// WatchConfig directly.
func NewWatchCluster(v WatchVariant, seed uint64) (*cluster.Cluster, error) {
	return cluster.New(WatchConfig(v, seed, DefaultWatchDuration, DefaultWatchRuleSet(), DefaultWatchInterval))
}

// Watch runs the watchdog rig under each variant and reports what the
// watchdog saw: alert count, detection latency after the bully lands,
// and the attribution ranking's top two aggressors.
func Watch(opt Options) Table { return runFigure(opt, watchTable) }

// watchRowOut is one rendered variant cell.
type watchRowOut struct {
	row    []string
	errStr string
}

func watchTable(h *harness) Table {
	t := Table{
		ID:    "watch",
		Title: "Online SLO watchdog: burn-rate alerting + noisy-neighbor attribution (2 hosts, bully lands on the victim's host at 4s)",
		Columns: []string{"variant", "served", "slo-viol", "alerts", "detect",
			"victim", "top aggressor", "score", "runner-up", "ratio", "incidents"},
	}
	seed := h.opt.Seed
	for _, v := range WatchVariants() {
		v := v
		out := jobAs(h, "watch|"+v.Name, func() watchRowOut {
			return watchCell(v, seed)
		})
		if out.errStr != "" {
			h.opt.Logf("watch: %s: %s", v.Name, out.errStr)
			continue
		}
		if out.row != nil {
			t.Rows = append(t.Rows, out.row)
		}
	}
	return t
}

// watchCell executes one variant and renders its row. Pure function of
// its arguments; safe on worker goroutines.
func watchCell(v WatchVariant, seed uint64) watchRowOut {
	c, err := cluster.New(WatchConfig(v, seed, DefaultWatchDuration, DefaultWatchRuleSet(), DefaultWatchInterval))
	if err != nil {
		return watchRowOut{errStr: err.Error()}
	}
	res, err := c.Run()
	if err != nil {
		return watchRowOut{errStr: err.Error()}
	}
	w := c.Watcher()
	alerts := w.Alerts()
	detect := "-"
	if len(alerts) > 0 {
		detect = fmtLatency(alerts[0].At - WatchBullyArrive)
	}
	victim, top, score, runner, ratio := "-", "-", "-", "-", "-"
	ranked, _ := w.Rankings()
	if len(ranked) > 0 {
		victim = ranked[0].Victim
		top = ranked[0].Aggressor
		score = fmt.Sprintf("%.4f", ranked[0].Score)
		if len(ranked) > 1 {
			runner = ranked[1].Aggressor
			if ranked[1].Score > 0 {
				ratio = fmt.Sprintf("%.1fx", ranked[0].Score/ranked[1].Score)
			}
		}
	}
	return watchRowOut{row: []string{
		v.Name,
		fmt.Sprintf("%d/%d", res.Served, res.Generated),
		fmt.Sprintf("%d (%.2f%%)", res.SLOViolations, res.SLORate*100),
		fmt.Sprintf("%d", len(alerts)),
		detect,
		victim,
		top,
		score,
		runner,
		ratio,
		fmt.Sprintf("%d", len(w.Recorder().Incidents())),
	}}
}
