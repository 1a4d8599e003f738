package topology

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/watch"
)

// LoadSpec is the declarative cluster-load specification driving the
// scale experiment and `irs load` — this repo's clusterloader2: one
// text blob describes the rack shape, the scheduling stack, the
// request load curve (flat, staged ramp, or diurnal), the tenant mix,
// injected zone outages, the burn-rate alert rule, and the replica
// autoscaler. Specs parse from strings (ParseLoadSpec) in the same
// section:key=value idiom as fault.ParsePlan and workload.ParseAttack,
// round-trip through String, and validate strictly, so a spec can live
// in a Makefile line, a CI job, or a file without drifting from what
// the simulator actually runs.
//
// Syntax: sections separated by ';' or newlines, each
// "name:key=value,...". '#' starts a line comment. Example:
//
//	topo:zones=2,hosts=8,pcpus=4
//	sched:policy=ia,strategy=irs,migrate=on
//	load:arrival=1ms,service=2ms,slo=25ms,duration=12s,drain=2s
//	ramp:1500us@0,1ms@2s,800us@4s
//	tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=500ms
//	outage:zone=1,at=6s,for=1200ms
//	alert:budget=0.02,fast=500ms,slow=2s,burn=3
//	autoscale:max=8,step=2,cooldown=1500ms,down-after=2500ms
type LoadSpec struct {
	// Zones × HostsPerZone hosts of PCPUs pCPUs each (topo section).
	Zones, HostsPerZone, PCPUs int

	// Policy is the placement policy ("first-fit", "least-loaded",
	// "ia"); Strategy the per-host hypervisor strategy ("vanilla",
	// "ple", "relaxed-co", "irs"); Migrate enables hot-spot live
	// migration (sched section).
	Policy, Strategy string
	Overcommit       float64
	Migrate          bool

	// Arrival is the mean request inter-arrival time (the flat rate,
	// and the base rate the diurnal curve modulates); Service the mean
	// service time; SLO the latency bound; Duration the stream length;
	// Drain the extra settle time (load section).
	Arrival, Service, SLO sim.Time
	Duration, Drain       sim.Time

	// Ramp is an explicit piecewise arrival schedule (ramp section):
	// stage k's mean inter-arrival applies from its At until the next
	// stage. Mutually exclusive with Diurnal.
	Ramp []Stage
	// Diurnal modulates the base Arrival rate sinusoidally (diurnal
	// section) — the compressed millions-of-users day/night curve.
	Diurnal *DiurnalSpec

	// Tenant mix, per zone (tenants section): ServersPerZone server
	// VMs (ServerVCPUs wide, ServerThreads workers, 0 = vCPU count)
	// and AntsPerZone antagonist VMs (AntVCPUs wide), arriving
	// alternately Spacing apart.
	ServersPerZone, ServerVCPUs, ServerThreads int
	AntsPerZone, AntVCPUs                      int
	Spacing                                    sim.Time

	// Outages are injected zone failures (outage sections, repeatable):
	// at At the zone is cordoned and its hosts go dark for For.
	Outages []OutageSpec

	// Alert is the burn-rate rule the SLO watchdog evaluates (alert
	// section, in watch.RuleFields syntax, named "slo-burn"); required
	// when Autoscale is set.
	Alert *watch.Rule
	// Autoscale bounds the replica autoscaler (autoscale section).
	Autoscale *AutoscaleSpec
}

// Stage is one step of a piecewise arrival schedule: mean inter-arrival
// Arrival from time At on.
type Stage struct {
	Arrival sim.Time
	At      sim.Time
}

// DiurnalSpec modulates the arrival rate as 1 + Swing·sin(2πt/Period),
// discretized into Steps flat stages per period.
type DiurnalSpec struct {
	Period sim.Time
	Swing  float64
	Steps  int
}

// OutageSpec is one injected zone failure.
type OutageSpec struct {
	Zone    int
	At, For sim.Time
}

// AutoscaleSpec bounds the replica autoscaler. Min 0 means "the
// initial server count"; Max must fit at least Min.
type AutoscaleSpec struct {
	Min, Max, Step      int
	Cooldown, DownAfter sim.Time
	Interval            sim.Time
}

// Default knobs applied by withDefaults for omitted fields.
const (
	DefaultSpacing  = 500 * sim.Millisecond
	DefaultDuration = 10 * sim.Second
	DefaultDrain    = 2 * sim.Second

	// alertRuleName names the alert section's rule.
	alertRuleName = "slo-burn"
)

// withDefaults fills unset fields with the documented defaults.
func (s LoadSpec) withDefaults() LoadSpec {
	if s.Zones == 0 {
		s.Zones = 1
	}
	if s.HostsPerZone == 0 {
		s.HostsPerZone = 4
	}
	if s.PCPUs == 0 {
		s.PCPUs = 4
	}
	if s.Policy == "" {
		s.Policy = "ia"
	}
	if s.Strategy == "" {
		s.Strategy = "irs"
	}
	if s.Overcommit == 0 {
		s.Overcommit = 1.5
	}
	if s.Arrival == 0 {
		s.Arrival = 1250 * sim.Microsecond
	}
	if s.Service == 0 {
		s.Service = 2 * sim.Millisecond
	}
	if s.SLO == 0 {
		s.SLO = 25 * sim.Millisecond
	}
	if s.Duration == 0 {
		s.Duration = DefaultDuration
	}
	if s.Drain == 0 {
		s.Drain = DefaultDrain
	}
	if s.ServersPerZone == 0 {
		s.ServersPerZone = 2
	}
	if s.ServerVCPUs == 0 {
		s.ServerVCPUs = 2
	}
	if s.AntVCPUs == 0 {
		s.AntVCPUs = 2
	}
	if s.Spacing == 0 {
		s.Spacing = DefaultSpacing
	}
	if d := s.Diurnal; d != nil {
		cp := *d
		if cp.Steps == 0 {
			cp.Steps = 8
		}
		s.Diurnal = &cp
	}
	if a := s.Alert; a != nil {
		cp := *a
		if cp.Budget == 0 {
			cp.Budget = 0.02
		}
		if cp.Fast == 0 {
			cp.Fast = 500 * sim.Millisecond
		}
		if cp.Slow == 0 {
			cp.Slow = 2 * sim.Second
		}
		if cp.Burn == 0 {
			cp.Burn = 3
		}
		if cp.Name == "" {
			cp.Name = alertRuleName
		}
		s.Alert = &cp
	}
	if as := s.Autoscale; as != nil {
		cp := *as
		if cp.Step == 0 {
			cp.Step = 1
		}
		if cp.Cooldown == 0 {
			cp.Cooldown = 2 * sim.Second
		}
		if cp.DownAfter == 0 {
			cp.DownAfter = 3 * sim.Second
		}
		if cp.Interval == 0 {
			cp.Interval = 250 * sim.Millisecond
		}
		if cp.Max == 0 {
			cp.Max = s.Zones*s.ServersPerZone + cp.Step
		}
		s.Autoscale = &cp
	}
	return s
}

// policies and strategies a spec may name (validated here so a bad
// spec fails at parse time, not deep inside cluster construction).
var (
	specPolicies   = []string{"first-fit", "least-loaded", "ia"}
	specStrategies = []string{"vanilla", "ple", "relaxed-co", "irs"}
)

// Validate rejects incoherent specs: impossible shapes, out-of-range
// knobs, outages aimed at zones that do not exist, ramps that go
// backwards, or an autoscaler with no alert rule to react to.
func (s LoadSpec) Validate() error {
	if s.Zones <= 0 || s.HostsPerZone <= 0 || s.PCPUs <= 0 {
		return fmt.Errorf("topology: spec needs positive zones×hosts×pcpus (got %d×%d×%d)", s.Zones, s.HostsPerZone, s.PCPUs)
	}
	if !slices.Contains(specPolicies, s.Policy) {
		return fmt.Errorf("topology: spec policy %q not in %v", s.Policy, specPolicies)
	}
	if !slices.Contains(specStrategies, s.Strategy) {
		return fmt.Errorf("topology: spec strategy %q not in %v", s.Strategy, specStrategies)
	}
	if !(s.Overcommit > 0) || math.IsInf(s.Overcommit, 0) {
		return fmt.Errorf("topology: spec overcommit %v not a positive finite number", s.Overcommit)
	}
	if s.Arrival <= 0 || s.Service <= 0 || s.SLO <= 0 || s.Duration <= 0 || s.Drain < 0 {
		return fmt.Errorf("topology: spec load durations must be positive (arrival=%v service=%v slo=%v duration=%v drain=%v)",
			s.Arrival, s.Service, s.SLO, s.Duration, s.Drain)
	}
	if len(s.Ramp) > 0 && s.Diurnal != nil {
		return fmt.Errorf("topology: spec has both ramp and diurnal sections")
	}
	for i, st := range s.Ramp {
		if st.Arrival <= 0 {
			return fmt.Errorf("topology: ramp stage %d arrival %v not positive", i, st.Arrival)
		}
		if st.At < 0 {
			return fmt.Errorf("topology: ramp stage %d at %v negative", i, st.At)
		}
		if i > 0 && st.At <= s.Ramp[i-1].At {
			return fmt.Errorf("topology: ramp stage %d at %v does not advance past %v", i, st.At, s.Ramp[i-1].At)
		}
	}
	if d := s.Diurnal; d != nil {
		if d.Period <= 0 {
			return fmt.Errorf("topology: diurnal period %v not positive", d.Period)
		}
		if !(d.Swing >= 0 && d.Swing < 1) {
			return fmt.Errorf("topology: diurnal swing %v outside [0, 1)", d.Swing)
		}
		if d.Steps < 2 {
			return fmt.Errorf("topology: diurnal steps %d < 2", d.Steps)
		}
	}
	if s.ServersPerZone < 0 || s.AntsPerZone < 0 || s.ServerVCPUs <= 0 || s.AntVCPUs <= 0 || s.ServerThreads < 0 {
		return fmt.Errorf("topology: bad tenant mix (servers=%d×%d ants=%d×%d threads=%d)",
			s.ServersPerZone, s.ServerVCPUs, s.AntsPerZone, s.AntVCPUs, s.ServerThreads)
	}
	if s.ServersPerZone*s.Zones < 1 {
		return fmt.Errorf("topology: spec places no server VMs")
	}
	if s.Spacing < 0 {
		return fmt.Errorf("topology: spacing %v negative", s.Spacing)
	}
	for i, o := range s.Outages {
		if o.Zone < 0 || o.Zone >= s.Zones {
			return fmt.Errorf("topology: outage %d zone %d outside [0,%d)", i, o.Zone, s.Zones)
		}
		if o.At < 0 || o.For <= 0 {
			return fmt.Errorf("topology: outage %d needs at >= 0 and for > 0 (got at=%v for=%v)", i, o.At, o.For)
		}
	}
	if a := s.Alert; a != nil {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("topology: alert: %v", err)
		}
	}
	if as := s.Autoscale; as != nil {
		if s.Alert == nil {
			return fmt.Errorf("topology: autoscale section needs an alert section (the burn-rate signal it reacts to)")
		}
		if as.Min < 0 || as.Step <= 0 {
			return fmt.Errorf("topology: autoscale min %d / step %d out of range", as.Min, as.Step)
		}
		base := as.Min
		if base == 0 {
			base = s.ServersPerZone * s.Zones
		}
		if as.Max < base {
			return fmt.Errorf("topology: autoscale max %d below floor %d", as.Max, base)
		}
		if as.Cooldown <= 0 || as.DownAfter <= 0 || as.Interval <= 0 {
			return fmt.Errorf("topology: autoscale timers must be positive (cooldown=%v down-after=%v interval=%v)",
				as.Cooldown, as.DownAfter, as.Interval)
		}
	}
	return nil
}

// Topology materializes the spec's rack shape.
func (s LoadSpec) Topology() *Topology { return Uniform(s.Zones, s.HostsPerZone) }

// Stages returns the effective piecewise arrival schedule: the
// explicit ramp when given, the discretized diurnal curve when
// configured, or nil for a flat stream at Arrival. The diurnal rate at
// stage k is base_rate × (1 + Swing·sin(2πk/Steps)), so the mean
// inter-arrival is Arrival / (1 + Swing·sin(·)); stages repeat for the
// whole Duration.
func (s LoadSpec) Stages() []Stage {
	if len(s.Ramp) > 0 {
		return s.Ramp
	}
	d := s.Diurnal
	if d == nil || d.Swing == 0 {
		return nil
	}
	step := d.Period / sim.Time(d.Steps)
	if step <= 0 {
		step = 1
	}
	var out []Stage
	for at, k := sim.Time(0), 0; at < s.Duration; at, k = at+step, k+1 {
		mod := 1 + d.Swing*math.Sin(2*math.Pi*float64(k%d.Steps)/float64(d.Steps))
		arr := sim.Time(float64(s.Arrival) / mod)
		if arr < 1 {
			arr = 1
		}
		out = append(out, Stage{Arrival: arr, At: at})
	}
	return out
}

// The section grammars. Every field renders, so String spells out the
// defaults a spec ran with.
var (
	topoFields = kv.Full(
		kv.PosInt("zones", func(s *LoadSpec) *int { return &s.Zones }),
		kv.PosInt("hosts", func(s *LoadSpec) *int { return &s.HostsPerZone }),
		kv.PosInt("pcpus", func(s *LoadSpec) *int { return &s.PCPUs }),
	)
	schedFields = kv.Full(
		kv.Str("policy", func(s *LoadSpec) *string { return &s.Policy }),
		kv.Str("strategy", func(s *LoadSpec) *string { return &s.Strategy }),
		kv.Float("overcommit", func(s *LoadSpec) *float64 { return &s.Overcommit }),
		kv.OnOff("migrate", func(s *LoadSpec) *bool { return &s.Migrate }),
	)
	loadFields = kv.Full(
		kv.Dur("arrival", func(s *LoadSpec) *sim.Time { return &s.Arrival }),
		kv.Dur("service", func(s *LoadSpec) *sim.Time { return &s.Service }),
		kv.Dur("slo", func(s *LoadSpec) *sim.Time { return &s.SLO }),
		kv.Dur("duration", func(s *LoadSpec) *sim.Time { return &s.Duration }),
		kv.Dur("drain", func(s *LoadSpec) *sim.Time { return &s.Drain }),
	)
	diurnalFields = kv.Full(
		kv.Dur("period", func(d *DiurnalSpec) *sim.Time { return &d.Period }),
		kv.Float("swing", func(d *DiurnalSpec) *float64 { return &d.Swing }),
		kv.Int("steps", func(d *DiurnalSpec) *int { return &d.Steps }),
	)
	tenantFields = kv.Full(
		kv.PosInt("servers", func(s *LoadSpec) *int { return &s.ServersPerZone }),
		kv.Int("server-vcpus", func(s *LoadSpec) *int { return &s.ServerVCPUs }),
		kv.Int("server-threads", func(s *LoadSpec) *int { return &s.ServerThreads }),
		kv.Int("ants", func(s *LoadSpec) *int { return &s.AntsPerZone }),
		kv.Int("ant-vcpus", func(s *LoadSpec) *int { return &s.AntVCPUs }),
		kv.Dur("spacing", func(s *LoadSpec) *sim.Time { return &s.Spacing }),
	)
	outageFields = kv.Full(
		kv.Int("zone", func(o *OutageSpec) *int { return &o.Zone }),
		kv.Dur("at", func(o *OutageSpec) *sim.Time { return &o.At }),
		kv.Dur("for", func(o *OutageSpec) *sim.Time { return &o.For }),
	)
	autoscaleFields = kv.Full(
		kv.Int("min", func(a *AutoscaleSpec) *int { return &a.Min }),
		kv.Int("max", func(a *AutoscaleSpec) *int { return &a.Max }),
		kv.Int("step", func(a *AutoscaleSpec) *int { return &a.Step }),
		kv.Dur("cooldown", func(a *AutoscaleSpec) *sim.Time { return &a.Cooldown }),
		kv.Dur("down-after", func(a *AutoscaleSpec) *sim.Time { return &a.DownAfter }),
		kv.Dur("interval", func(a *AutoscaleSpec) *sim.Time { return &a.Interval }),
	)
)

// String renders the spec in the exact syntax ParseLoadSpec accepts,
// with every field explicit; ParseLoadSpec(s.String()) round-trips to
// an equal spec.
func (s LoadSpec) String() string {
	s = s.withDefaults()
	parts := []string{
		"topo:" + topoFields.Format(&s),
		"sched:" + schedFields.Format(&s),
		"load:" + loadFields.Format(&s),
	}
	if len(s.Ramp) > 0 {
		stages := make([]string, len(s.Ramp))
		for i, st := range s.Ramp {
			stages[i] = st.Arrival.Std().String() + "@" + st.At.Std().String()
		}
		parts = append(parts, "ramp:"+strings.Join(stages, ","))
	}
	if s.Diurnal != nil {
		parts = append(parts, "diurnal:"+diurnalFields.Format(s.Diurnal))
	}
	parts = append(parts, "tenants:"+tenantFields.Format(&s))
	for i := range s.Outages {
		parts = append(parts, "outage:"+outageFields.Format(&s.Outages[i]))
	}
	if s.Alert != nil {
		parts = append(parts, "alert:"+watch.RuleFields.Format(s.Alert))
	}
	if s.Autoscale != nil {
		parts = append(parts, "autoscale:"+autoscaleFields.Format(s.Autoscale))
	}
	return strings.Join(parts, "; ")
}

// ParseLoadSpec parses a declarative cluster-load spec (see the
// LoadSpec syntax above), applies defaults to omitted fields, and
// validates the result.
func ParseLoadSpec(text string) (LoadSpec, error) {
	secs, err := kv.Sections(text)
	if err != nil {
		return LoadSpec{}, fmt.Errorf("topology: %v", err)
	}
	var s LoadSpec
	for i, sec := range secs {
		name := strings.ToLower(sec.Name)
		for _, prev := range secs[:i] {
			if name != "outage" && strings.EqualFold(prev.Name, name) {
				return LoadSpec{}, fmt.Errorf("topology: duplicate section %q", name)
			}
		}
		if err := parseSection(&s, name, sec.Body); err != nil {
			return LoadSpec{}, fmt.Errorf("topology: %s: %v", name, err)
		}
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return LoadSpec{}, err
	}
	return s, nil
}

// parseSection parses one section body into s.
func parseSection(s *LoadSpec, name, body string) error {
	switch name {
	case "topo":
		return topoFields.Parse(s, body)
	case "sched":
		return schedFields.Parse(s, body)
	case "load":
		return loadFields.Parse(s, body)
	case "ramp":
		ramp, err := kv.List(body, parseStage)
		sort.SliceStable(ramp, func(a, b int) bool { return ramp[a].At < ramp[b].At })
		s.Ramp = ramp
		return err
	case "diurnal":
		s.Diurnal = &DiurnalSpec{}
		return diurnalFields.Parse(s.Diurnal, body)
	case "tenants":
		return tenantFields.Parse(s, body)
	case "outage":
		s.Outages = append(s.Outages, OutageSpec{Zone: -1})
		return outageFields.Parse(&s.Outages[len(s.Outages)-1], body)
	case "alert":
		s.Alert = &watch.Rule{}
		return watch.RuleFields.Parse(s.Alert, body)
	case "autoscale":
		s.Autoscale = &AutoscaleSpec{}
		return autoscaleFields.Parse(s.Autoscale, body)
	}
	return fmt.Errorf("unknown section")
}

// parseStage reads one "arrival@at" ramp stage.
func parseStage(stage string) (Stage, error) {
	arr, at, ok := strings.Cut(stage, "@")
	if !ok {
		return Stage{}, fmt.Errorf("stage %q is not arrival@at", stage)
	}
	a, err := time.ParseDuration(strings.TrimSpace(arr))
	if err != nil {
		return Stage{}, err
	}
	t, err := time.ParseDuration(strings.TrimSpace(at))
	return Stage{Arrival: sim.Time(a), At: sim.Time(t)}, err
}
