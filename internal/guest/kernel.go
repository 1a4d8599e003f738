package guest

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
)

// Config holds guest-kernel tunables. Defaults mirror a Linux 3.18-era
// CFS setup (250 Hz tick, ~6 ms effective slices with two runnable
// tasks) plus the measured costs of the IRS paths (§3.1: SA handling
// takes 20–26 µs end to end).
type Config struct {
	// Tick is the timer-interrupt period (Linux: 4 ms at 250 Hz).
	Tick sim.Time
	// SchedLatency is the CFS scheduling period; each of n runnable
	// tasks gets SchedLatency/n, floored at MinGranularity.
	SchedLatency   sim.Time
	MinGranularity sim.Time
	// WakeupGranularity limits wakeup preemption: a waking task preempts
	// only when its vruntime lags the current task's by more than this.
	WakeupGranularity sim.Time
	// BalanceInterval is the periodic load-balancing period per CPU.
	BalanceInterval sim.Time

	// IRS enables the guest half of interference-resilient scheduling:
	// the VIRQ_SA_UPCALL handler, context switcher, and migrator.
	IRS bool

	// IRSPull additionally enables the pull-based migration mechanism
	// proposed as future work in §6: an idling guest CPU steals the
	// frozen current task of a preempted sibling vCPU.
	IRSPull bool

	// Protocol-hardening toggles, each independently ablatable. All off
	// by default, reproducing the paper's unhardened protocol.

	// HardenDupSA suppresses duplicate SA upcalls: an upcall arriving
	// while the context switcher is already in flight is dropped
	// instead of restarting the handler (which would double its latency
	// and can push the ack past the hypervisor's hard limit).
	HardenDupSA bool
	// MigratorRetries bounds re-submission when the migrator finds no
	// viable target or its chosen busy target turns out to be preempted
	// (stale runstate); MigratorBackoff is the delay between attempts.
	// 0 retries reproduces the immediate send-home fallback.
	MigratorRetries int
	MigratorBackoff sim.Time
	// WakePoll, when positive, arms a recovery timer before the idle
	// loop blocks the vCPU, so a lost wakeup kick strands queued work
	// for at most WakePoll instead of forever.
	WakePoll sim.Time

	// Faults, when non-nil, injects guest-side faults: timer-tick
	// jitter and migrator-thread stalls. Nil injects nothing.
	Faults *fault.Injector

	// Trace, when non-nil, records task scheduling events.
	Trace *trace.Log

	// Metrics, when non-nil, receives guest-kernel telemetry: task
	// migration counts by cause, balance decisions, spin-wait entries,
	// migrator latency, and per-CPU rt_avg gauges. Nil disables
	// collection.
	Metrics *obs.Registry

	// Spans, when non-nil, is the tracer request-serving workloads on
	// this kernel mint blame spans from (see internal/span). Nil
	// disables causal tracing at zero cost.
	Spans *span.Tracer

	// SpinBeforeBlock is the adaptive-spin budget blocking primitives
	// burn before sleeping (futex/adaptive-mutex pre-sleep spinning).
	// This short spinning is what pause-loop exiting punishes on
	// blocking workloads (§5.2). 0 disables it.
	SpinBeforeBlock sim.Time

	// Costs of kernel paths, charged as virtual time.
	CtxSwitchCost sim.Time // task context switch
	TickCost      sim.Time // timer-interrupt handler
	IRQCost       sim.Time // generic interrupt entry/exit
	SAHandlerCost sim.Time // SA receiver + context switcher bottom half
	MigratorCost  sim.Time // migrator scan + __migrate_task
	StopperCost   sim.Time // migration_cpu_stop on the source CPU
	CacheHot      sim.Time // tasks that ran more recently are not pulled

	Seed uint64
}

// DefaultConfig returns the Linux-like defaults used in the paper's
// evaluation.
func DefaultConfig() Config {
	return Config{
		Tick:              4 * sim.Millisecond,
		SchedLatency:      12 * sim.Millisecond,
		MinGranularity:    2 * sim.Millisecond,
		WakeupGranularity: 1 * sim.Millisecond,
		BalanceInterval:   20 * sim.Millisecond,
		IRS:               false,
		SpinBeforeBlock:   40 * sim.Microsecond,
		CtxSwitchCost:     3 * sim.Microsecond,
		TickCost:          1 * sim.Microsecond,
		IRQCost:           2 * sim.Microsecond,
		SAHandlerCost:     18 * sim.Microsecond,
		MigratorCost:      4 * sim.Microsecond,
		StopperCost:       5 * sim.Microsecond,
		CacheHot:          500 * sim.Microsecond,
		Seed:              1,
	}
}

// Kernel is one guest operating system instance driving one VM.
type Kernel struct {
	eng  *sim.Engine
	hv   *hypervisor.Hypervisor
	vm   *hypervisor.VM
	cfg  Config
	cpus []*CPU
	rng  sim.RNG

	tasks      []*Task
	nextTaskID int
	liveTasks  int

	migrator migrator
	// spanObs is set once the per-vCPU span observers are registered
	// (first AttachSpan).
	spanObs bool

	// OnAllExited fires once every spawned task has exited.
	OnAllExited func()

	// Statistics.
	TaskMigrations  int64
	WakeMigrations  int64
	PullMigrations  int64
	IRSMigrations   int64
	IRSPullSteals   int64
	idleBalanceRuns int64

	// Hardening statistics (see the Harden* / WakePoll config knobs).
	SADupSuppressed    int64 // duplicate SA upcalls dropped
	MigratorRetried    int64 // migrations re-attempted after backoff
	WakePollRecoveries int64 // lost wakeups recovered by the idle poll

	// Metric handles (nil, hence no-op, without a registry).
	mTaskMigr    *obs.Counter
	mWakeMigr    *obs.Counter
	mPullMigr    *obs.Counter
	mIRSMigr     *obs.Counter
	mIRSPull     *obs.Counter
	mIdleBalance *obs.Counter
	mSpinWaits   *obs.Counter
	mMigrLatency *obs.Histogram
	mSADupSupp   *obs.Counter
	mMigrRetry   *obs.Counter
	mWakeRecover *obs.Counter
}

// NewKernel boots a guest kernel onto vm, creating one guest CPU per
// vCPU and registering the interrupt/scheduling hooks with the
// hypervisor. Call Start to bring the vCPUs online.
func NewKernel(hv *hypervisor.Hypervisor, vm *hypervisor.VM, cfg Config) *Kernel {
	k := &Kernel{
		eng:  hv.Engine(),
		hv:   hv,
		vm:   vm,
		cfg:  cfg,
		rng:  *sim.NewRNG(cfg.Seed ^ uint64(vm.ID)<<32 ^ 0x6e51),
		cpus: make([]*CPU, len(vm.VCPUs)),
	}
	k.migrator.kern = k
	reg := cfg.Metrics
	vmL := obs.Labels{Sub: "guest", VM: vm.Name}
	k.mTaskMigr = reg.Counter("guest_task_migrations_total", vmL)
	k.mWakeMigr = reg.Counter("guest_wake_migrations_total", vmL)
	k.mPullMigr = reg.Counter("guest_pull_migrations_total", vmL)
	k.mIRSMigr = reg.Counter("guest_irs_migrations_total", vmL)
	k.mIRSPull = reg.Counter("guest_irs_pull_steals_total", vmL)
	k.mIdleBalance = reg.Counter("guest_idle_balance_total", vmL)
	k.mSpinWaits = reg.Counter("guest_spin_waits_total", vmL)
	k.mMigrLatency = reg.Histogram("guest_migrator_latency_ns", vmL)
	k.mSADupSupp = reg.Counter("guest_sa_dup_suppressed_total", vmL)
	k.mMigrRetry = reg.Counter("guest_migrator_retries_total", vmL)
	k.mWakeRecover = reg.Counter("guest_wake_poll_recoveries_total", vmL)
	cpus := make([]CPU, len(vm.VCPUs))
	for i, v := range vm.VCPUs {
		c := &cpus[i]
		c.kern, c.id, c.vcpu = k, i, v
		if reg != nil {
			c.mRTAvg = reg.Gauge("guest_rt_avg", obs.Labels{Sub: "guest", VM: vm.Name, CPU: "cpu" + strconv.Itoa(i)})
		}
		k.cpus[i] = c
		hv.RegisterGuest(v, c)
	}
	return k
}

// Start brings all vCPUs online.
func (k *Kernel) Start() {
	for _, c := range k.cpus {
		k.hv.StartVCPU(c.vcpu)
	}
}

// VM returns the hypervisor VM this kernel runs in.
func (k *Kernel) VM() *hypervisor.VM { return k.vm }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// CPU returns guest CPU i.
func (k *Kernel) CPU(i int) *CPU { return k.cpus[i] }

// CPUs returns all guest CPUs.
func (k *Kernel) CPUs() []*CPU { return k.cpus }

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now returns current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// RNG returns the kernel's deterministic random stream.
func (k *Kernel) RNG() *sim.RNG { return &k.rng }

// Tasks returns all spawned tasks.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// LiveTasks returns the number of tasks that have not exited.
func (k *Kernel) LiveTasks() int { return k.liveTasks }

// Spawn creates a task running prog, initially ready on CPU cpu.
func (k *Kernel) Spawn(name string, prog Program, cpu int) *Task {
	if cpu < 0 || cpu >= len(k.cpus) {
		panic(fmt.Sprintf("guest: spawn %s on invalid cpu %d", name, cpu))
	}
	t := &Task{
		ID:     k.nextTaskID,
		Name:   name,
		kern:   k,
		prog:   prog,
		weight: 1024,
		state:  TaskReady,
		cpu:    k.cpus[cpu],
	}
	k.nextTaskID++
	k.tasks = append(k.tasks, t)
	k.liveTasks++
	c := t.cpu
	t.vruntime = c.minVruntime()
	t.pending = t.stepCallback()
	c.rq.Enqueue(t)
	k.kickCPU(c)
	return t
}

// step asks the program for the next action and begins it. It runs in
// task context (t is the current task of an executing CPU).
func (k *Kernel) step(t *Task) {
	if t.exited {
		return
	}
	act := t.prog.Step(t)
	switch act.Kind {
	case ActExit:
		k.exitTask(t)
	case ActRun:
		t.actDone = act.Done
		t.segRemaining = act.Dur
		t.segDone = t.finishCallback()
		t.cpu.startSegment(t)
	default:
		panic(fmt.Sprintf("guest: bad action kind %d from %s", act.Kind, t.Name))
	}
}

// exitTask terminates t and schedules the next task on its CPU.
func (k *Kernel) exitTask(t *Task) {
	c := t.cpu
	t.exited = true
	t.state = TaskDone
	k.liveTasks--
	if c.cur == t {
		c.bankCur()
		c.cur = nil
		if k.liveTasks == 0 && k.OnAllExited != nil {
			k.OnAllExited()
		}
		c.schedule()
		return
	}
	c.rq.Remove(t)
	if k.liveTasks == 0 && k.OnAllExited != nil {
		k.OnAllExited()
	}
}

// RunInTask schedules d of on-CPU work for task t (which must be the
// current task of its CPU), then calls done. Synchronization code uses
// it to express work performed inside critical sections.
func (k *Kernel) RunInTask(t *Task, d sim.Time, done func()) {
	if t.cpu.cur != t {
		panic("guest: RunInTask on non-current task " + t.Name)
	}
	t.segRemaining = d
	t.segDone = done
	t.cpu.startSegment(t)
}

// BlockTask puts the current task of its CPU to sleep. Synchronization
// primitives call this from task context; the task resumes when
// WakeTask is called and the task is next scheduled.
func (k *Kernel) BlockTask(t *Task) {
	c := t.cpu
	if c.cur != t {
		panic("guest: BlockTask on non-current task " + t.Name)
	}
	c.bankCur()
	t.state = TaskBlocked
	c.cur = nil
	k.spanSync(t)
	k.traceTask(t, "blocked on cpu%d", c.id)
	c.schedule()
}

// traceTask records a task event when tracing is enabled.
func (k *Kernel) traceTask(t *Task, format string, args ...any) {
	if k.cfg.Trace != nil {
		k.cfg.Trace.Recordf(k.eng.Now(), trace.KindTask, t.Name, format, args...)
	}
}

// SleepTask blocks the current task for duration d, then wakes it and
// runs cont. (The wakeup timer is modelled as an engine event rather
// than a guest timer interrupt; see DESIGN.md.)
func (k *Kernel) SleepTask(t *Task, d sim.Time, cont func()) {
	k.eng.After(d, "sleep", func() {
		if t.state == TaskBlocked {
			k.WakeTask(t, cont)
		}
	})
	k.BlockTask(t)
}

// WakeTask makes a blocked task ready, running wakeup load balancing to
// choose its CPU. cont, if non-nil, runs when the task next gets CPU.
func (k *Kernel) WakeTask(t *Task, cont func()) {
	if t.state != TaskBlocked {
		panic("guest: WakeTask on " + t.String())
	}
	if cont != nil {
		prev := t.pending
		if prev != nil {
			panic("guest: WakeTask with pending continuation on " + t.Name)
		}
		t.pending = cont
	}
	target := k.selectCPUForWake(t)
	if target != t.cpu {
		k.WakeMigrations++
		k.mWakeMigr.Inc()
		t.Migrations++
	}
	t.cpu = target
	t.state = TaskReady
	// Sleeper fairness: never let a long sleeper hoard vruntime credit.
	base := target.minVruntime() - k.cfg.SchedLatency/2
	if t.vruntime < base {
		t.vruntime = base
	}
	target.rq.Enqueue(t)
	k.spanSync(t)
	k.traceTask(t, "woken on cpu%d", target.id)
	k.checkWakePreempt(target, t)
	k.kickCPU(target)
}

// checkWakePreempt applies CFS wakeup preemption plus the IRS rule from
// Fig. 4: a waking task always preempts a migration-tagged current task
// so lock waiters wake on their home vCPU without ping-pong migration.
// Like the real kernel, it only flags the preemption (need_resched);
// the switch happens at the next preemption point.
func (k *Kernel) checkWakePreempt(c *CPU, woken *Task) {
	cur := c.cur
	if cur == nil {
		return
	}
	tagPreempt := k.cfg.IRS && cur.MigrTag
	if !tagPreempt && woken.vruntime >= cur.vruntime-k.cfg.WakeupGranularity {
		return
	}
	c.setNeedResched()
}

// AuditInvariants walks the guest scheduler's state and reports every
// broken invariant through report (rule, detail). The central rule is
// no-lost-tasks: every non-exited task must be locatable exactly where
// its state claims it is — on a CPU, on a runqueue, in the migrator's
// hands, or blocked awaiting a wakeup. Faults (lost kicks, stalled
// migrators, blackouts) may delay tasks, never strand them untracked.
func (k *Kernel) AuditInvariants(report func(rule, detail string)) {
	live := 0
	for _, t := range k.tasks {
		if t.exited {
			if t.state != TaskDone {
				report("no-lost-tasks", fmt.Sprintf("%s exited but in state %s", t.Name, t.state))
			}
			continue
		}
		live++
		switch t.state {
		case TaskRunning:
			if t.cpu == nil || t.cpu.cur != t {
				report("no-lost-tasks", fmt.Sprintf("%s claims running but is not current anywhere", t.Name))
			}
		case TaskReady:
			onRQ := false
			if t.cpu != nil {
				for _, q := range t.cpu.rq.Tasks() {
					if q == t {
						onRQ = true
						break
					}
				}
				if t.cpu.cur == t {
					report("no-lost-tasks", fmt.Sprintf("%s claims ready but is current on cpu%d", t.Name, t.cpu.id))
				}
			}
			if !onRQ {
				report("no-lost-tasks", fmt.Sprintf("%s claims ready but is on no runqueue", t.Name))
			}
		case TaskMigrating:
			found := false
			for _, it := range k.migrator.queue {
				if it.t == t {
					found = true
					break
				}
			}
			if !found {
				_, found = k.migrator.retrying[t]
			}
			if !found {
				report("no-lost-tasks", fmt.Sprintf("%s claims migrating but the migrator does not hold it", t.Name))
			}
		case TaskBlocked:
			// Awaiting an external wakeup; nothing locatable to check.
		default:
			report("no-lost-tasks", fmt.Sprintf("%s in unexpected state %s", t.Name, t.state))
		}
	}
	if live != k.liveTasks {
		report("live-task-count", fmt.Sprintf("%d tasks not exited but liveTasks=%d", live, k.liveTasks))
	}
}

// kickCPU ensures CPU c will notice newly queued work: an idle blocked
// vCPU gets an event-channel kick; an executing idle loop reschedules.
func (k *Kernel) kickCPU(c *CPU) {
	if c.cur != nil {
		return
	}
	if c.running {
		c.schedule()
		return
	}
	if c.vcpu.State() == hypervisor.StateBlocked {
		k.hv.Kick(c.vcpu)
	}
	// A runnable (preempted) vCPU will pick the task up on resume.
}
