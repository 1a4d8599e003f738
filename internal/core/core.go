// Package core is the public API of the IRS reproduction: it wires the
// simulation engine, the Xen-like hypervisor, Linux-like guest kernels,
// and workload models into runnable scenarios, and extracts the metrics
// the paper reports.
//
// A Scenario describes physical CPUs, a scheduling strategy, and a set
// of VMs each with a workload. Run executes it until every finite
// (non-repeating) workload completes and returns per-VM results.
//
//	scn := core.Scenario{
//	    PCPUs:    4,
//	    Strategy: core.StrategyIRS,
//	    VMs: []core.VMSpec{
//	        core.BenchmarkVM("fg", bench, 0, 4),
//	        core.HogVM("bg", 1, []int{0}),
//	    },
//	}
//	res, err := core.Run(scn)
package core

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Strategy re-exports the hypervisor scheduling strategies.
type Strategy = hypervisor.Strategy

// Scheduling strategies under evaluation.
const (
	StrategyVanilla   = hypervisor.StrategyVanilla
	StrategyPLE       = hypervisor.StrategyPLE
	StrategyRelaxedCo = hypervisor.StrategyRelaxedCo
	StrategyIRS       = hypervisor.StrategyIRS
	// StrategyStrictCo (ESX 2.x gang scheduling) is provided for the
	// ab-strictco ablation; the paper evaluates the four above.
	StrategyStrictCo = hypervisor.StrategyStrictCo
)

// Strategies lists all four in evaluation order.
func Strategies() []Strategy {
	return []Strategy{StrategyVanilla, StrategyPLE, StrategyRelaxedCo, StrategyIRS}
}

// VMSpec describes one virtual machine of a scenario.
type VMSpec struct {
	Name   string
	VCPUs  int
	Weight int // credit weight; 0 = 256
	// Pin maps each vCPU to a pCPU; nil leaves the vCPUs unpinned
	// (meaningful with Scenario.Unpinned).
	Pin []int
	// IRS marks the guest kernel as SA-capable (implements the
	// VIRQ_SA_UPCALL handler). Usually set for the foreground VM when
	// the strategy is StrategyIRS.
	IRS bool
	// Attach builds the VM's workload on its guest kernel.
	Attach func(k *guest.Kernel, seed uint64) *workload.Instance
	// Repeat marks a background workload that loops forever.
	Repeat bool
}

// Scenario is a complete experiment configuration.
type Scenario struct {
	PCPUs    int
	Strategy Strategy
	Seed     uint64
	// Horizon caps virtual time (default 600 s).
	Horizon sim.Time
	// Unpinned enables hypervisor-level vCPU load balancing; vCPUs with
	// no Pin float freely (the §5.6 CPU-stacking setup).
	Unpinned bool
	VMs      []VMSpec

	// TuneHV and TuneGuest optionally adjust the default configs.
	TuneHV    func(*hypervisor.Config)
	TuneGuest func(name string, c *guest.Config)

	// Metrics, when non-nil, is attached to the hypervisor and every
	// guest kernel so the run produces structured telemetry (see
	// internal/obs). Nil (the default) disables collection; the Tune
	// hooks can still attach per-layer registries by hand.
	Metrics *obs.Registry
	// SampleInterval, when positive and Metrics is set, starts a
	// periodic sampler that snapshots every metric into time series at
	// that virtual-time cadence (exposed as Cluster.Sampler).
	SampleInterval sim.Time

	// Faults, when non-zero, injects the described fault plan (dropped
	// and duplicated vIRQs, hypercall loss, stale runstates, blackouts;
	// see internal/fault) into the hypervisor and every guest kernel.
	// FaultSeed seeds the injector's independent RNG streams; 0 derives
	// it from Seed so runs stay reproducible by default.
	Faults    fault.Plan
	FaultSeed uint64
	// Invariants attaches a runtime invariant checker that audits the
	// hypervisor and every guest kernel at AuditInterval (default 1 ms
	// of virtual time) and bridges engine scheduling violations. The
	// checker is exposed as Cluster.Checker; its violation count as
	// Result.Violations.
	Invariants    bool
	AuditInterval sim.Time
}

// VMResult holds per-VM measurements.
type VMResult struct {
	Name           string
	Instance       *workload.Instance
	Runtime        sim.Time // first-completion runtime (0 if unfinished)
	MeanRuntime    sim.Time // mean over repeats
	Completions    int
	CPUTime        sim.Time // total vCPU execution time
	StealTime      sim.Time
	LHP, LWP       int64
	IRSMigrations  int64
	TaskMigrations int64
	Kernel         *guest.Kernel
}

// Result is the outcome of one scenario run.
type Result struct {
	Elapsed sim.Time // when the last finite workload completed
	VMs     []VMResult
	// SA statistics from the hypervisor (IRS runs). SAPending counts
	// handshakes still open when the run ended; SAFallbacks counts
	// preemptions that skipped the handshake because the circuit
	// breaker was open.
	SASent, SAAcked, SAExpired, SAPending int64
	SAFallbacks                           int64
	SAMeanDelay, SAMaxDelay               sim.Time
	VCPUMigrations                        int64
	Events                                uint64
	// FaultsInjected is the total fault count across all kinds
	// (Scenario.Faults); Violations the invariant-checker total
	// (Scenario.Invariants). Both 0 when the feature is off.
	FaultsInjected int64
	Violations     int64
}

// VM returns the result for the named VM.
func (r *Result) VM(name string) *VMResult {
	for i := range r.VMs {
		if r.VMs[i].Name == name {
			return &r.VMs[i]
		}
	}
	return nil
}

// ErrUnfinished is returned when the horizon expired before every
// finite workload completed.
var ErrUnfinished = errors.New("core: horizon reached before workloads completed")

// Run executes the scenario to completion of all finite workloads.
func Run(scn Scenario) (*Result, error) {
	cluster, err := Build(scn)
	if err != nil {
		return nil, err
	}
	return cluster.Run()
}

// Cluster is a built (but not yet run) scenario, exposed for tests and
// examples that need mid-run access to the pieces.
type Cluster struct {
	Scenario  Scenario
	Engine    *sim.Engine
	HV        *hypervisor.Hypervisor
	Kernels   []*guest.Kernel
	Instances []*workload.Instance
	// Sampler is the periodic metrics sampler, non-nil when the
	// scenario set both Metrics and SampleInterval.
	Sampler *obs.Sampler
	// Faults is the scenario's fault injector (nil without a plan);
	// Checker the attached invariant checker (nil unless enabled).
	Faults  *fault.Injector
	Checker *invariant.Checker

	finite     int
	doneFinite int
}

// Build constructs the engine, hypervisor, guests and workloads.
func Build(scn Scenario) (*Cluster, error) {
	if scn.PCPUs <= 0 {
		return nil, errors.New("core: scenario needs pCPUs")
	}
	if len(scn.VMs) == 0 {
		return nil, errors.New("core: scenario needs at least one VM")
	}
	if scn.Horizon <= 0 {
		scn.Horizon = 600 * sim.Second
	}
	if scn.Seed == 0 {
		scn.Seed = 1
	}

	eng := sim.NewEngine()
	var inj *fault.Injector
	if !scn.Faults.Zero() {
		if err := scn.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		seed := scn.FaultSeed
		if seed == 0 {
			seed = scn.Seed ^ 0xfa017eed
		}
		inj = fault.NewInjector(scn.Faults, seed, scn.Metrics)
	}
	hc := hypervisor.DefaultConfig(scn.PCPUs)
	hc.Strategy = scn.Strategy
	hc.LoadBalance = scn.Unpinned
	hc.Seed = scn.Seed
	hc.Metrics = scn.Metrics
	hc.Faults = inj
	if scn.TuneHV != nil {
		hc = tuned(hc, scn.TuneHV)
	}
	hv := hypervisor.New(eng, hc)

	c := &Cluster{
		Scenario:  scn,
		Engine:    eng,
		HV:        hv,
		Faults:    inj,
		Kernels:   make([]*guest.Kernel, 0, len(scn.VMs)),
		Instances: make([]*workload.Instance, 0, len(scn.VMs)),
	}
	if scn.Invariants {
		c.Checker = invariant.New(scn.AuditInterval)
		c.Checker.Observe(hv)
	}
	if scn.Metrics != nil && scn.SampleInterval > 0 {
		c.Sampler = obs.NewSampler(scn.Metrics, scn.SampleInterval)
		c.Sampler.Start(eng)
	}
	for vi, spec := range scn.VMs {
		weight := spec.Weight
		if weight == 0 {
			weight = 256
		}
		vm := hv.NewVM(spec.Name, spec.VCPUs, weight, spec.IRS)
		if spec.Pin != nil {
			if len(spec.Pin) != spec.VCPUs {
				return nil, fmt.Errorf("core: VM %s has %d vCPUs but %d pins", spec.Name, spec.VCPUs, len(spec.Pin))
			}
			for i, p := range spec.Pin {
				if p < 0 || p >= scn.PCPUs {
					return nil, fmt.Errorf("core: VM %s pins vCPU %d to invalid pCPU %d", spec.Name, i, p)
				}
				vm.VCPUs[i].Pin(hv.PCPU(p))
			}
		}
		gc := guest.DefaultConfig()
		gc.IRS = spec.IRS
		gc.Metrics = scn.Metrics
		gc.Faults = inj
		gc.Seed = scn.Seed ^ uint64(vi+1)*0x9e37
		if scn.TuneGuest != nil {
			gc = tuned(gc, func(c *guest.Config) { scn.TuneGuest(spec.Name, c) })
		}
		kern := guest.NewKernel(hv, vm, gc)
		c.Kernels = append(c.Kernels, kern)
		if c.Checker != nil {
			c.Checker.Observe(kern)
		}

		if spec.Attach == nil {
			return nil, fmt.Errorf("core: VM %s has no workload", spec.Name)
		}
		inst := spec.Attach(kern, scn.Seed^uint64(vi+1)*0x517c)
		if inst == nil {
			return nil, fmt.Errorf("core: VM %s workload attach returned nil", spec.Name)
		}
		inst.Repeat = spec.Repeat
		c.Instances = append(c.Instances, inst)
		if !spec.Repeat && !instIsEndless(inst) {
			c.finite++
		}
	}
	if c.Checker != nil {
		c.Checker.Attach(eng)
	}
	return c, nil
}

// tuned returns cfg adjusted by tune. Taking the address inside this
// helper keeps the caller's config on the stack when no hook is set.
func tuned[C any](cfg C, tune func(*C)) C {
	tune(&cfg)
	return cfg
}

// instIsEndless reports whether the instance never completes (hogs).
func instIsEndless(in *workload.Instance) bool { return in.Endless }

// Run starts every VM and drives the simulation until all finite
// workloads finish or the horizon is hit.
func (c *Cluster) Run() (*Result, error) {
	scn := c.Scenario
	var lastFinish sim.Time
	for i := range c.Instances {
		inst := c.Instances[i]
		spec := scn.VMs[i]
		prev := inst.OnFinish
		if !spec.Repeat && !inst.Endless {
			inst.OnFinish = func() {
				if prev != nil {
					prev()
				}
				if inst.Completions == 1 {
					c.doneFinite++
					if c.doneFinite == c.finite {
						lastFinish = c.Engine.Now()
						c.Engine.Stop()
					}
				}
			}
		} else if prev != nil {
			inst.OnFinish = prev
		}
		inst.Start()
	}
	for _, k := range c.Kernels {
		k.Start()
	}
	runErr := c.Engine.Run(scn.Horizon)

	res := &Result{Elapsed: lastFinish, Events: c.Engine.Fired()}
	if lastFinish == 0 {
		res.Elapsed = c.Engine.Now()
	}
	for i, k := range c.Kernels {
		inst := c.Instances[i]
		vm := k.VM()
		res.VMs = append(res.VMs, VMResult{
			Name:           vm.Name,
			Instance:       inst,
			Runtime:        inst.Runtime(),
			MeanRuntime:    inst.MeanRuntime(),
			Completions:    inst.Completions,
			CPUTime:        vm.TotalRunTime(),
			StealTime:      vm.TotalStealTime(),
			LHP:            vm.LHPCount,
			LWP:            vm.LWPCount,
			IRSMigrations:  k.IRSMigrations,
			TaskMigrations: k.TaskMigrations,
			Kernel:         k,
		})
	}
	res.SASent, res.SAAcked, res.SAExpired, res.SAPending, res.SAMeanDelay, res.SAMaxDelay = c.HV.SAStats()
	res.SAFallbacks = c.HV.SAFallbacks()
	res.VCPUMigrations = c.HV.VCPUMigrations()
	if c.Faults != nil {
		res.FaultsInjected = c.Faults.Total()
	}
	if c.Checker != nil {
		c.Checker.Audit() // one final pass at end-of-run state
		res.Violations = c.Checker.Count()
	}

	if c.doneFinite < c.finite {
		if runErr != nil {
			return res, fmt.Errorf("%w: %v", ErrUnfinished, runErr)
		}
		return res, ErrUnfinished
	}
	return res, nil
}
