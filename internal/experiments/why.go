package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/topology"
)

// The why experiment answers the observability question the other
// tables raise: when the 2z8h outage rig rides through its zone
// failure, *why* did the control plane do what it did? It runs the
// scale experiment's acceptance rig with the decision audit log
// attached and renders the incident's decision trail — cordon, the
// first failover route, each autoscaler action — with the inputs and
// winning margins each choice had at the instant it was made, plus a
// summary row counting every recorded decision. The trail is exact;
// cmd/irswhy gates CI on it.

// RunWhy executes a cluster load spec with the decision log attached
// (recording the given kinds) and returns the finished cluster.
// Shared by the why table and cmd/irswhy.
func RunWhy(specText string, kinds []decision.Kind, seed uint64) (*cluster.Cluster, error) {
	spec, err := topology.ParseLoadSpec(specText)
	if err != nil {
		return nil, err
	}
	cfg, err := ScaleConfig(spec, seed)
	if err != nil {
		return nil, err
	}
	cfg.Decisions = &decision.Options{Kinds: kinds}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(); err != nil {
		return nil, err
	}
	return c, nil
}

// Why runs the outage rig with the decision log and renders its
// decision trail.
func Why(opt Options) Table { return runFigure(opt, whyTable) }

type whyOut struct {
	rows   [][]string
	errStr string
}

func whyTable(h *harness) Table {
	t := Table{
		ID:      "why",
		Title:   "Decision provenance: the 2z8h outage rig's audit trail (cordon -> failover -> autoscale), from the cluster-wide decision log",
		Columns: []string{"step", "t", "kind", "chooser", "subject", "winner", "margin", "why"},
	}
	seed := h.opt.Seed
	out := jobAs(h, "why|2z8h-outage", func() whyOut {
		return whyCell(seed)
	})
	if out.errStr != "" {
		h.opt.Logf("why: %s", out.errStr)
		return t
	}
	t.Rows = out.rows
	return t
}

// whyCell runs the rig and renders the trail rows plus the Σ summary.
// Pure function of its arguments; safe on worker goroutines.
func whyCell(seed uint64) whyOut {
	c, err := RunWhy(ScaleOutageSpec, decision.ControlKinds(), seed)
	if err != nil {
		return whyOut{errStr: err.Error()}
	}
	log := c.Decisions()
	recs := log.Records()
	var rows [][]string
	for _, step := range decision.Trail(recs) {
		r := step.Rec
		margin := "-"
		if m, ok := r.Margin(); ok {
			margin = fmt.Sprintf("%.3f", m)
		}
		rows = append(rows, []string{
			step.Label,
			r.At.String(),
			r.Kind.String(),
			r.Chooser,
			r.Subject,
			r.Winner,
			margin,
			r.Detail.String(),
		})
	}
	rows = append(rows, []string{
		"Σ", "-", "-", "-", "-", "-", "-",
		fmt.Sprintf("%s (dropped %d)", decision.CountsString(recs), log.Dropped()),
	})
	return whyOut{rows: rows}
}
