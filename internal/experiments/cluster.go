package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// ClusterVariant is one row of the cluster experiment: a placement
// policy paired with the per-host scheduling strategy, optional live
// migration, and optional chaos (control-plane faults + host
// blackouts). Exported so cmd/irsweep can sweep the same variants over
// different rack shapes.
type ClusterVariant struct {
	Name      string
	Policy    cluster.Policy
	Strategy  hypervisor.Strategy
	IRS       bool
	Migration bool
	Chaos     bool
}

// ClusterVariants lists the comparison rows in table order: the two
// placement baselines, interference-aware placement alone, the full
// stack (interference-aware placement + IRS inside each host), and the
// full stack under chaos.
func ClusterVariants() []ClusterVariant {
	return []ClusterVariant{
		{Name: "first-fit", Policy: cluster.FirstFit, Strategy: hypervisor.StrategyVanilla},
		{Name: "least-loaded", Policy: cluster.LeastLoaded, Strategy: hypervisor.StrategyVanilla},
		{Name: "ia", Policy: cluster.InterferenceAware, Strategy: hypervisor.StrategyVanilla, Migration: true},
		{Name: "ia+irs", Policy: cluster.InterferenceAware, Strategy: hypervisor.StrategyIRS, IRS: true, Migration: true},
		{Name: "ia+irs+chaos", Policy: cluster.InterferenceAware, Strategy: hypervisor.StrategyIRS, IRS: true, Migration: true, Chaos: true},
	}
}

// ClusterConfig materialises the cluster.Config for one variant and
// seed. Every row runs the invariant checker: the "viol" column is the
// correctness half of the table.
func ClusterConfig(v ClusterVariant, seed uint64) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.Policy = v.Policy
	cfg.Strategy = v.Strategy
	cfg.IRS = v.IRS
	cfg.Migration = v.Migration
	cfg.Invariants = true
	if v.Chaos {
		cfg.Faults = fault.LossPlan(0.10)
		cfg.HostBlackoutEvery = 6 * sim.Second
		cfg.HostBlackoutFor = 60 * sim.Millisecond
		// Chaos rides on the hardened profile (same defenses as the
		// chaos experiment's irs-hardened row): without wakeup-loss
		// polling, a lost wakeup strands an idle server worker for good.
		cfg.TuneHV = func(c *hypervisor.Config) {
			c.SABreakerN = 5
			c.SABreakerCooldown = 50 * sim.Millisecond
		}
		cfg.TuneGuest = func(c *guest.Config) {
			c.HardenDupSA = true
			c.MigratorRetries = 3
			c.MigratorBackoff = 200 * sim.Microsecond
			c.WakePoll = 5 * sim.Millisecond
		}
	}
	return cfg
}

// Cluster runs the multi-host consolidation experiment: the same VM
// arrival mix and request stream under each placement/scheduling
// variant. The claim the table supports: interference-aware placement
// plus IRS beats first-fit on tail latency and SLO-violation rate, and
// stays invariant-clean even while live-migrating under chaos.
func Cluster(opt Options) Table { return runFigure(opt, clusterTable) }

// clusterRowOut is one rendered variant cell.
type clusterRowOut struct {
	row    []string
	errStr string
}

func clusterTable(h *harness) Table {
	t := Table{
		ID:    "cluster",
		Title: "Multi-host placement: policy×strategy vs cluster tail latency (3 hosts, 4 servers + 4 antagonists)",
		Columns: []string{"variant", "served", "p50", "p99", "p99.9", "slo-viol",
			"migr", "blackouts", "injected", "violations"},
	}
	seed := h.opt.Seed
	for _, v := range ClusterVariants() {
		v := v
		out := jobAs(h, "cluster|"+v.Name, func() clusterRowOut {
			return clusterCell(v, seed)
		})
		if out.errStr != "" {
			h.opt.Logf("cluster: %s: %s", v.Name, out.errStr)
			continue
		}
		if out.row != nil {
			t.Rows = append(t.Rows, out.row)
		}
	}
	return t
}

// clusterCell executes one variant and renders its row. Pure function
// of its arguments; safe on worker goroutines.
func clusterCell(v ClusterVariant, seed uint64) clusterRowOut {
	c, err := cluster.New(ClusterConfig(v, seed))
	if err != nil {
		return clusterRowOut{errStr: err.Error()}
	}
	res, err := c.Run()
	if err != nil {
		return clusterRowOut{errStr: err.Error()}
	}
	return clusterRowOut{row: []string{
		v.Name,
		fmt.Sprintf("%d/%d", res.Served, res.Generated),
		fmtLatency(res.P50),
		fmtLatency(res.P99),
		fmtLatency(res.P999),
		fmt.Sprintf("%d (%.2f%%)", res.SLOViolations, res.SLORate*100),
		fmt.Sprintf("%d", res.Migrations),
		fmt.Sprintf("%d", res.Blackouts),
		fmt.Sprintf("%d", res.FaultsInjected),
		fmt.Sprintf("%d", res.Violations),
	}}
}

// fmtLatency renders a latency in milliseconds.
func fmtLatency(t sim.Time) string {
	return fmt.Sprintf("%.3fms", float64(t)/float64(sim.Millisecond))
}
