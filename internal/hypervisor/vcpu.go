// Package hypervisor models a Xen-style type-1 hypervisor: physical
// CPUs, SMP virtual machines with virtual CPUs, the credit scheduler
// (30 ms slices, 10 ms ticks, BOOST/UNDER/OVER priorities), virtual
// interrupt delivery, a small hypercall surface, and the scheduling
// strategies evaluated by the paper (vanilla, PLE, relaxed
// co-scheduling, and the IRS scheduler-activation sender).
package hypervisor

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunState is the hypervisor-visible state of a vCPU, mirroring Xen's
// RUNSTATE_* accounting states.
type RunState int

const (
	// StateRunning means the vCPU is executing on a pCPU.
	StateRunning RunState = iota + 1
	// StateRunnable means the vCPU wants to run but has been preempted.
	// Time spent here is "steal time" from the guest's point of view.
	StateRunnable
	// StateBlocked means the vCPU is idle or waiting for an event.
	StateBlocked
	// StateOffline means the vCPU is not started.
	StateOffline
)

func (s RunState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateRunnable:
		return "runnable"
	case StateBlocked:
		return "blocked"
	case StateOffline:
		return "offline"
	default:
		return fmt.Sprintf("RunState(%d)", int(s))
	}
}

// Priority is a credit-scheduler priority class.
type Priority int

const (
	// PrioBoost is given to vCPUs waking from a blocked state so that
	// latency-sensitive vCPUs run promptly.
	PrioBoost Priority = iota + 1
	// PrioUnder means the vCPU still has credits.
	PrioUnder
	// PrioOver means the vCPU has exhausted its credits.
	PrioOver
)

func (p Priority) String() string {
	switch p {
	case PrioBoost:
		return "BOOST"
	case PrioUnder:
		return "UNDER"
	case PrioOver:
		return "OVER"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// GuestContext is the guest-kernel side of one vCPU. The hypervisor
// drives the guest through these hooks; they are invoked synchronously
// from scheduler code at well-defined points.
type GuestContext interface {
	// Resume is called when the vCPU begins executing on a pCPU.
	// Pending interrupts should be taken before resuming user work.
	Resume()
	// Suspend is called when the vCPU stops executing (preemption or
	// block). The guest must freeze in-flight work accounting.
	Suspend()
	// TakeIRQ delivers an interrupt while the vCPU is executing.
	TakeIRQ(irq IRQ)
	// Descheduling lets the guest classify what the vCPU was doing for
	// LHP/LWP accounting just before an involuntary preemption.
	Descheduling() PreemptClass
}

// PreemptClass classifies what a vCPU was executing when preempted,
// used for lock-holder/lock-waiter preemption accounting.
type PreemptClass int

const (
	// PreemptOther is a preemption with no lock involvement.
	PreemptOther PreemptClass = iota + 1
	// PreemptLockHolder means the running task held a lock (LHP).
	PreemptLockHolder
	// PreemptLockWaiter means the running task waited on a lock (LWP).
	PreemptLockWaiter
	// PreemptIdle means the vCPU was idling.
	PreemptIdle
)

func (c PreemptClass) String() string {
	switch c {
	case PreemptOther:
		return "other"
	case PreemptLockHolder:
		return "lock-holder"
	case PreemptLockWaiter:
		return "lock-waiter"
	case PreemptIdle:
		return "idle"
	}
	return fmt.Sprintf("PreemptClass(%d)", int(c))
}

// VCPU is one virtual CPU of a VM.
type VCPU struct {
	ID   int
	VM   *VM
	hv   *Hypervisor
	ctx  GuestContext
	name string // built on first Name call: only traces and labels read it

	state      RunState
	stateSince sim.Time
	stateTime  [StateOffline + 1]sim.Time

	prio    Priority
	credits int
	// debited is the cumulative credits charged to this vCPU under
	// exact accounting; the next settlement charges the difference
	// between the credits owed for total runtime and this figure, so a
	// run interval is never charged twice (tick + deschedule edges).
	debited int64

	pcpu     *PCPU // where running, nil otherwise
	assigned *PCPU // home runqueue
	pinned   *PCPU // hard affinity, nil = float

	sliceStart sim.Time // when the vCPU was last put on a pCPU
	occSince   sim.Time // start of the accruing occupancy interval
	// (distinct from sliceStart: occupancy flushes mid-slice via
	// SyncOccupancyAccounting without disturbing ratelimit math)

	saPending  bool         // an SA notification awaits guest acknowledgement
	saSentAt   sim.Time     // when the pending SA was sent
	saDeadline sim.EventRef // hard limit for SA completion
	saPCPU     *PCPU        // pCPU whose preemption the open SA stalls

	// Circuit-breaker state (cfg.SABreakerN): consecutive hard-limit
	// expiries without an intervening ack, and when the breaker opened.
	saConsecExpired   int
	saBreakerOpenedAt sim.Time

	started   bool     // StartVCPU has run
	startedAt sim.Time // when the vCPU came online

	pendingIRQ []IRQ
	claimedIRQ []IRQ        // the last claimed batch; its storage backs the next one
	timer      sim.EventRef // one-shot guest timer
	timerAt    sim.Time

	yieldHint bool // vCPU yielded; enqueue behind peers of same class

	spinningSince sim.Time     // PLE: when continuous spinning began (0 = not spinning)
	pleEvent      sim.EventRef // PLE window expiry

	parkedUntil sim.Time // relaxed-co: vCPU must not run before this time
	// parkCatchRef/parkCatchTarget release the park early once the
	// lagging sibling's cumulative runtime reaches the target.
	parkCatchRef    *VCPU
	parkCatchTarget sim.Time

	// accActive records CPU consumption within the current accounting
	// window so bursty blockers still receive credits.
	accActive bool
	// acctRun accumulates runtime toward the next placement
	// re-evaluation (csched_vcpu_acct).
	acctRun sim.Time

	// Window accounting for relaxed-co progress monitoring.
	windowRun          sim.Time
	windowBlocked      sim.Time
	windowLastProgress sim.Time

	preemptions int64
	wakeups     int64

	// observer, when set, is called after every externally visible
	// scheduling transition of this vCPU: a runstate change or an SA
	// handshake opening/closing. The guest's span instrumentation uses
	// it to re-blame the tasks riding on the vCPU; it is nil (and the
	// notification free) otherwise.
	observer func()

	// pleFn, timerFn and saLimitFn are the PLE-window, one-shot-timer
	// and SA-hard-limit callbacks. Each is bound on first use (most
	// strategies never arm most of them), so re-arming allocates
	// nothing.
	pleFn, timerFn, saLimitFn func()

	// Metric handles (nil, hence no-op, without a registry).
	mState   [StateOffline + 1]*obs.Counter // cumulative ns per runstate
	mPreempt *obs.Counter
}

// Name returns a short identifier such as "vm1/v2".
func (v *VCPU) Name() string {
	if v.name == "" {
		v.name = v.VM.Name + "/v" + strconv.Itoa(v.ID)
	}
	return v.name
}

func (v *VCPU) pleCallback() func() {
	if v.pleFn == nil {
		v.pleFn = func() { v.hv.pleExit(v) }
	}
	return v.pleFn
}

func (v *VCPU) timerCallback() func() {
	if v.timerFn == nil {
		v.timerFn = func() {
			v.timer = sim.EventRef{}
			v.hv.SendIRQ(v, IRQTimer)
		}
	}
	return v.timerFn
}

func (v *VCPU) saLimitCallback() func() {
	if v.saLimitFn == nil {
		v.saLimitFn = func() { v.hv.saExpire(v.saPCPU, v) }
	}
	return v.saLimitFn
}

// State returns the current hypervisor run state.
func (v *VCPU) State() RunState { return v.state }

// Pin constrains the vCPU to a single pCPU.
func (v *VCPU) Pin(p *PCPU) {
	v.pinned = p
	v.assigned = p
}

// Pinned returns the pCPU this vCPU is pinned to, or nil.
func (v *VCPU) Pinned() *PCPU { return v.pinned }

// setState moves the vCPU to state s, folding the elapsed interval into
// the runstate accounting that backs steal-time reporting.
func (v *VCPU) setState(s RunState) {
	now := v.hv.eng.Now()
	v.stateTime[v.state] += now - v.stateSince
	v.mState[v.state].AddTime(now - v.stateSince)
	if v.state == StateRunning {
		v.windowRun += now - v.stateSince
	} else if v.state == StateBlocked {
		v.windowBlocked += now - v.stateSince
	}
	if tl := v.hv.cfg.Trace; tl != nil && s != v.state {
		tl.Recordf(now, trace.KindVCPUState, v.Name(), "%s -> %s", trace.Str(v.state.String()), trace.Str(s.String()))
	}
	changed := s != v.state
	v.state = s
	v.stateSince = now
	if changed {
		v.notifyObserver()
	}
}

// SetObserver registers fn to be invoked after every runstate change
// and SA-handshake flip of this vCPU. One observer per vCPU; nil
// unregisters.
func (v *VCPU) SetObserver(fn func()) { v.observer = fn }

func (v *VCPU) notifyObserver() {
	if v.observer != nil {
		v.observer()
	}
}

// SAPending reports whether a scheduler-activation handshake is open:
// the hypervisor sent VIRQ_SA_UPCALL and awaits the guest's sched_op
// acknowledgement.
func (v *VCPU) SAPending() bool { return v.saPending }

// StateTime reports the cumulative time spent in state s, including the
// currently accruing interval.
func (v *VCPU) StateTime(s RunState) sim.Time {
	t := v.stateTime[s]
	if v.state == s {
		t += v.hv.eng.Now() - v.stateSince
	}
	return t
}

// StealTime reports time the vCPU spent runnable-but-not-running.
func (v *VCPU) StealTime() sim.Time { return v.StateTime(StateRunnable) }

// RunTime reports the total time the vCPU has executed.
func (v *VCPU) RunTime() sim.Time { return v.StateTime(StateRunning) }

// Runnable reports whether the vCPU wants CPU (running or queued).
func (v *VCPU) Runnable() bool {
	return v.state == StateRunning || v.state == StateRunnable
}

// Preemptions reports how many involuntary preemptions this vCPU has
// suffered.
func (v *VCPU) Preemptions() int64 { return v.preemptions }

// VM is an SMP virtual machine.
type VM struct {
	ID     int
	Name   string
	Weight int // credit-scheduler weight (default 256)
	VCPUs  []*VCPU
	hv     *Hypervisor

	// SACapable marks guests that implement the VIRQ_SA_UPCALL
	// handler. Guests without it ignore SA notifications, so the
	// hypervisor must not wait for an acknowledgement.
	SACapable bool

	// Counters for lock-holder / lock-waiter preemption events.
	LHPCount int64
	LWPCount int64

	// BoostGrants counts BOOST priorities granted on wake; CreditsDebited
	// the credits charged across all vCPUs (tick-sampled or exact).
	// Together with TheftStats they make scheduler theft first-class:
	// a tick-evader shows near-zero debits, a boost-gamer an outsized
	// grant count.
	BoostGrants    int64
	CreditsDebited int64

	// Metric handles (nil, hence no-op, without a registry).
	mPreemptWait *obs.Histogram
	mSAAck       *obs.Histogram
	mSASent      *obs.Counter
	mSAAcked     *obs.Counter
	mSAExpired   *obs.Counter
	mSAFallback  *obs.Counter
	mSABreaker   *obs.Counter
	mLHP         *obs.Counter
	mLWP         *obs.Counter
	mBoost       *obs.Counter
	mCredits     *obs.Counter
	mDebited     *obs.Counter
}

// TotalRunTime sums the execution time of all vCPUs.
func (vm *VM) TotalRunTime() sim.Time {
	var t sim.Time
	for _, v := range vm.VCPUs {
		t += v.RunTime()
	}
	return t
}

// TotalStealTime sums steal time across all vCPUs.
func (vm *VM) TotalStealTime() sim.Time {
	var t sim.Time
	for _, v := range vm.VCPUs {
		t += v.StealTime()
	}
	return t
}

// Credits exposes the current credit balance (diagnostics).
func (v *VCPU) Credits() int { return v.credits }

// Prio exposes the current priority class (diagnostics).
func (v *VCPU) Prio() Priority { return v.prio }
