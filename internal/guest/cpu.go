package guest

import (
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CPU is the guest kernel's view of one vCPU: a CFS runqueue, the
// current task, the timer tick, and the machinery that freezes and
// resumes execution as the hypervisor schedules the backing vCPU.
type CPU struct {
	kern *Kernel
	id   int
	vcpu *hypervisor.VCPU

	rq  runQueue
	cur *Task

	// running mirrors whether the backing vCPU is executing on a pCPU.
	running bool
	// executing is true while cur actively consumes CPU (a compute
	// segment or a spin loop); curStart is when that stint began.
	executing bool
	curStart  sim.Time
	// completion fires when the current compute segment finishes; nil
	// while spinning (spins end by grant, not by time).
	completion sim.EventRef
	// execGen invalidates in-flight deferred work across suspends.
	execGen uint64

	// Event callbacks, each bound on first use so re-arming allocates
	// nothing: startFn is startCur as an execAfter continuation, deferFn
	// runs the pending deferral, segFn completes the compute segment and
	// spinFn fires the spin-budget timer.
	startFn, deferFn, segFn, spinFn func()
	// defer* is the execAfter deferral deferFn runs; deferCont is nil
	// while the slot is free. Two deferrals can be pending at once (a
	// kick dispatches a task while a Resume's deferral is still in
	// flight), so one that finds the slot taken carries its own state.
	deferCont func()
	deferGen  uint64
	// segTask/segDone are the task and continuation of the pending
	// segment completion. There is at most one: executing only drops in
	// bankCur, which cancels the completion, and a segment only starts
	// while not executing.
	segTask *Task
	segDone func()
	// spin* is the spin-budget timer spinFn serves; a timer armed while
	// spinRef is still live carries its own state.
	spinRef  sim.EventRef
	spinTask *Task
	spinW    *spinWait

	sliceUsed   sim.Time
	lastBalance sim.Time
	// needResched defers a wakeup/migration preemption to the next
	// preemption point, so continuation chains never lose the CPU
	// mid-flight (the kernel's TIF_NEED_RESCHED).
	needResched bool

	// rtAvg is the Linux-style runqueue load estimate combining guest
	// task load and hypervisor steal time (§3.3).
	rtAvg        float64
	lastSteal    sim.Time
	lastRTUpdate sim.Time

	// stoppers queue migration_cpu_stop work that must run on this CPU.
	stoppers []func()

	tickArmed bool
	// saInFlight is true while the SA receiver/context switcher runs;
	// with HardenDupSA a duplicate upcall arriving in that window is
	// dropped instead of restarting the handler.
	saInFlight bool
	// wakePollArmed is true while the idle loop's wakeup-loss recovery
	// timer (Config.WakePoll) is armed on the blocked vCPU.
	wakePollArmed bool

	// Statistics.
	IdleTime  sim.Time
	idleSince sim.Time
	TicksRun  int64
	Switches  int64

	mRTAvg *obs.Gauge // nil without a registry
}

var _ hypervisor.GuestContext = (*CPU)(nil)

// ID returns the guest CPU index.
func (c *CPU) ID() int { return c.id }

// VCPU returns the backing virtual CPU.
func (c *CPU) VCPU() *hypervisor.VCPU { return c.vcpu }

// Current returns the task the guest believes is running on this CPU.
func (c *CPU) Current() *Task { return c.cur }

// QueueLen returns the number of ready tasks waiting on this CPU.
func (c *CPU) QueueLen() int { return c.rq.Len() }

// Running reports whether the backing vCPU currently executes.
func (c *CPU) Running() bool { return c.running }

// RTAvg returns the current runqueue load estimate.
func (c *CPU) RTAvg() float64 { return c.rtAvg }

// GuestIdle reports whether the guest has no work for this CPU.
func (c *CPU) GuestIdle() bool { return c.cur == nil && c.rq.Len() == 0 }

// minVruntime approximates the runqueue's minimum vruntime for
// placement of woken and migrated tasks.
func (c *CPU) minVruntime() sim.Time {
	min := c.rq.minVruntime
	if c.cur != nil && c.cur.vruntime > min {
		min = c.cur.vruntime
	}
	if head := c.rq.Peek(); head != nil && head.vruntime > min {
		min = head.vruntime
	}
	return min
}

// ---- hypervisor.GuestContext ----

// Resume is invoked by the hypervisor when the vCPU starts executing.
func (c *CPU) Resume() {
	c.running = true
	now := c.kern.Now()
	var cost sim.Time
	irqs := c.kern.hv.ClaimPendingIRQs(c.vcpu)
	if c.wakePollArmed {
		// The idle loop armed a wakeup-loss recovery timer before
		// blocking. If we wake up with queued work but no kick among the
		// claimed interrupts, the wakeup IPI was lost and the poll is
		// what saved the stranded task.
		c.wakePollArmed = false
		kicked := false
		for _, irq := range irqs {
			if irq == hypervisor.IRQKick {
				kicked = true
			}
		}
		if !kicked && c.rq.Len() > 0 {
			c.kern.WakePollRecoveries++
			c.kern.mWakeRecover.Inc()
		}
	}
	// Timer interrupts outrank everything else (TIMER_SOFTIRQ priority).
	for pass := 0; pass < 2; pass++ {
		for _, irq := range irqs {
			timer := irq == hypervisor.IRQTimer
			if (pass == 0) == timer {
				cost += c.handleIRQ(irq)
			}
		}
	}
	for _, w := range c.stoppers {
		w()
		cost += c.kern.cfg.StopperCost
	}
	c.stoppers = nil
	c.kern.migrator.kick()
	if !c.tickArmed && (c.cur != nil || c.rq.Len() > 0) {
		c.armTick(now)
	}
	c.execAfter(cost, c.startCurFn())
}

// Suspend is invoked when the vCPU stops executing; it freezes the
// current task's progress.
func (c *CPU) Suspend() {
	c.bankCur()
	c.running = false
	c.execGen++
	// Suspension invalidates any in-flight SA handler (execGen above);
	// a later upcall must be allowed to start a fresh one.
	c.saInFlight = false
}

// TakeIRQ handles an interrupt delivered while executing.
func (c *CPU) TakeIRQ(irq hypervisor.IRQ) {
	if irq == hypervisor.IRQSAUpcall && c.saInFlight && c.kern.cfg.HardenDupSA {
		// Hardened: a duplicate upcall while the handler is already in
		// flight is dropped. Without this, the bankCur/execGen++ below
		// cancels the in-flight handler and restarts it, doubling the
		// ack latency — enough to blow the hypervisor's hard limit.
		c.kern.SADupSuppressed++
		c.kern.mSADupSupp.Inc()
		return
	}
	c.bankCur()
	c.execGen++
	if irq == hypervisor.IRQSAUpcall {
		// SA receiver + context-switcher bottom half; the sched_op
		// acknowledgement happens when the handler cost has elapsed.
		c.saInFlight = true
		c.execAfter(c.kern.cfg.IRQCost+c.kern.cfg.SAHandlerCost, c.finishSAUpcall)
		return
	}
	cost := c.handleIRQ(irq)
	c.execAfter(cost, c.startCurFn())
}

// Descheduling classifies the preempted vCPU for LHP/LWP accounting.
func (c *CPU) Descheduling() hypervisor.PreemptClass {
	t := c.cur
	switch {
	case t == nil:
		return hypervisor.PreemptIdle
	case t.LocksHeld > 0:
		return hypervisor.PreemptLockHolder
	case t.WaitingLock || t.spin != nil:
		return hypervisor.PreemptLockWaiter
	default:
		return hypervisor.PreemptOther
	}
}

// ---- execution machinery ----

// bankCur folds the elapsed stint into the current task's accounting
// and cancels any pending completion. Safe to call at any time.
func (c *CPU) bankCur() {
	if !c.executing || c.cur == nil {
		return
	}
	now := c.kern.Now()
	elapsed := now - c.curStart
	t := c.cur
	t.CPUTime += elapsed
	t.vruntime += elapsed
	t.lastRun = now
	c.sliceUsed += elapsed
	if !c.completion.Cancelled() {
		t.segRemaining -= elapsed
		if t.segRemaining < 0 {
			t.segRemaining = 0
		}
		c.kern.eng.Cancel(c.completion)
		c.completion = sim.EventRef{}
	} else if t.spin != nil {
		t.spin.spent += elapsed
		c.kern.eng.Cancel(t.spin.timeoutEv)
		t.spin.timeoutEv = sim.EventRef{}
	}
	c.executing = false
	c.kern.spanSync(t)
}

// execAfter runs fn after the given kernel-path cost, unless the vCPU
// is suspended in between.
func (c *CPU) execAfter(cost sim.Time, fn func()) {
	if cost <= 0 {
		fn()
		return
	}
	gen := c.execGen
	if c.deferCont != nil {
		c.kern.eng.After(cost, "guest-exec", func() { c.runDeferred(fn, gen) })
		return
	}
	c.deferCont, c.deferGen = fn, gen
	if c.deferFn == nil {
		c.deferFn = func() {
			fn, gen := c.deferCont, c.deferGen
			c.deferCont = nil
			c.runDeferred(fn, gen)
		}
	}
	c.kern.eng.After(cost, "guest-exec", c.deferFn)
}

// runDeferred runs a deferral armed at generation gen, unless the vCPU
// was suspended or interrupted since.
func (c *CPU) runDeferred(fn func(), gen uint64) {
	if c.running && gen == c.execGen {
		fn()
	}
}

// startCurFn returns startCur as a continuation for execAfter.
func (c *CPU) startCurFn() func() {
	if c.startFn == nil {
		c.startFn = c.startCur
	}
	return c.startFn
}

// startCur (re)starts whatever the CPU should be doing: pending
// continuations, an interrupted compute segment, a spin loop, or task
// selection when there is no current task.
func (c *CPU) startCur() {
	if !c.running || c.executing {
		return
	}
	if c.needResched {
		c.needResched = false
		if c.cur != nil && c.rq.Len() > 0 {
			c.preemptLocalDeferred()
			c.schedule()
			return
		}
	}
	t := c.cur
	if t == nil {
		c.schedule()
		return
	}
	if t.pending != nil {
		fn := t.pending
		t.pending = nil
		fn()
		// The continuation may have blocked or exited the task, in
		// which case a successor was already dispatched; only re-enter
		// when the task is still current.
		if c.cur != t {
			return
		}
		c.startCur()
		return
	}
	if t.spin != nil {
		sw := t.spin
		if sw.granted || (sw.poll != nil && sw.poll()) {
			c.endSpin(t, sw)
			sw.resume()
			if c.cur != t {
				return
			}
			c.startCur()
			return
		}
		if sw.budget > 0 && sw.spent >= sw.budget {
			// Adaptive-spin budget exhausted: fall back (usually sleep).
			c.endSpin(t, sw)
			sw.onTimeout()
			if c.cur != t {
				return
			}
			c.startCur()
			return
		}
		// Keep spinning: burn CPU until granted, timed out or preempted.
		c.executing = true
		c.curStart = c.kern.Now()
		c.kern.spanSync(t)
		c.kern.hv.SpinBegin(c.vcpu)
		if sw.budget > 0 {
			sw.timeoutEv = c.armSpinTimeout(t, sw, sw.budget-sw.spent)
		}
		return
	}
	if t.segRemaining > 0 {
		c.executing = true
		c.curStart = c.kern.Now()
		c.kern.spanSync(t)
		c.segTask, c.segDone = t, t.segDone
		if c.segFn == nil {
			c.segFn = func() {
				t, done := c.segTask, c.segDone
				c.segTask, c.segDone = nil, nil
				c.completeSegment(t, done)
			}
		}
		c.completion = c.kern.eng.After(t.segRemaining, "seg", c.segFn)
		return
	}
	if t.segDone != nil {
		// Zero-length segment: complete immediately.
		done := t.segDone
		t.segDone = nil
		done()
		c.startCur()
		return
	}
	// Nothing to do: the program must have finished a step without
	// arming the next one (it blocked and was requeued elsewhere, or
	// exited). Let the scheduler sort it out.
	c.schedule()
}

// completeSegment ends t's compute segment and runs its continuation.
func (c *CPU) completeSegment(t *Task, done func()) {
	if c.cur != t {
		return
	}
	c.completion = sim.EventRef{}
	c.bankCur()
	t.segRemaining = 0
	t.segDone = nil
	done()
}

// armSpinTimeout arms the spin-budget timer of t's wait sw.
func (c *CPU) armSpinTimeout(t *Task, sw *spinWait, d sim.Time) sim.EventRef {
	if !c.spinRef.Cancelled() {
		return c.kern.eng.After(d, "spin-budget", func() { c.spinTimeout(t, sw) })
	}
	c.spinTask, c.spinW = t, sw
	if c.spinFn == nil {
		c.spinFn = func() {
			t, sw := c.spinTask, c.spinW
			c.spinTask, c.spinW = nil, nil
			c.spinTimeout(t, sw)
		}
	}
	c.spinRef = c.kern.eng.After(d, "spin-budget", c.spinFn)
	return c.spinRef
}

// endSpin clears a consumed or abandoned spin wait.
func (c *CPU) endSpin(t *Task, sw *spinWait) {
	c.kern.eng.Cancel(sw.timeoutEv)
	sw.timeoutEv = sim.EventRef{}
	t.spin = nil
	t.spinHolder = nil
	t.WaitingLock = false
	c.kern.hv.SpinEnd(c.vcpu)
}

// spinTimeout fires when a bounded spin exhausts its budget while
// actually executing.
func (c *CPU) spinTimeout(t *Task, sw *spinWait) {
	if c.cur != t || t.spin != sw || !c.running || !c.executing {
		return
	}
	c.bankCur()
	c.execGen++
	c.endSpin(t, sw)
	sw.onTimeout()
	if c.cur == t {
		c.startCur()
	}
}

// startSegment is called from Kernel.step when a new compute segment is
// armed for t. If t is currently on CPU and executing context, begin.
func (c *CPU) startSegment(t *Task) {
	if c.cur == t && c.running && !c.executing {
		c.startCur()
	}
	// Otherwise the segment starts when the task is next scheduled.
}

// schedule picks the next task when the CPU has no current task.
func (c *CPU) schedule() {
	if c.cur != nil || !c.running {
		return
	}
	next := c.rq.PickNext()
	if next == nil {
		c.goIdle()
		return
	}
	c.dispatchTask(next)
}

func (c *CPU) dispatchTask(next *Task) {
	if c.idleSince > 0 {
		c.IdleTime += c.kern.Now() - c.idleSince
		c.idleSince = 0
	}
	// Leaving the idle loop without a Resume (kicked while executing):
	// the recovery poll no longer applies.
	c.wakePollArmed = false
	next.state = TaskRunning
	next.cpu = c
	c.cur = next
	c.sliceUsed = 0
	c.Switches++
	c.kern.spanSync(next)
	if !c.tickArmed {
		c.armTick(c.kern.Now())
	}
	c.execAfter(c.kern.cfg.CtxSwitchCost, c.startCurFn())
}

// setNeedResched requests a reschedule of CPU c. A CPU that is actively
// executing a compute segment is interrupted right away (the resched
// IPI); one that is mid-kernel-path defers to the next preemption
// point in startCur.
func (c *CPU) setNeedResched() {
	if c.running && c.executing {
		c.preemptLocal()
		return
	}
	c.needResched = true
}

// preemptLocal moves the current task back to the runqueue (guest-level
// CFS preemption) and reschedules.
func (c *CPU) preemptLocal() {
	t := c.cur
	if t == nil {
		return
	}
	c.bankCur()
	c.execGen++
	t.state = TaskReady
	c.cur = nil
	c.rq.Enqueue(t)
	c.kern.spanSync(t)
	c.schedule()
}

// goIdle tries idle (pull) balancing, then blocks the vCPU.
func (c *CPU) goIdle() {
	// An in-flight IRS migration may be about to land a task right
	// here (e.g. returning home); settle it before deciding to block,
	// or the vCPU gives up its scheduling slot for nothing.
	if len(c.kern.migrator.queue) > 0 {
		c.kern.migrator.drainSync()
		if c.cur != nil || c.rq.Len() > 0 {
			c.schedule()
			return
		}
	}
	if c.pullBalance(true) || c.irsPullSteal() {
		c.schedule()
		return
	}
	// Tickless idle: stop the tick and give the vCPU back.
	c.stopTick()
	if c.idleSince == 0 {
		c.idleSince = c.kern.Now()
	}
	if wp := c.kern.cfg.WakePoll; wp > 0 {
		// Hardened: arm a recovery timer so a lost wakeup kick strands
		// queued work for at most WakePoll. The one-shot timer is
		// naturally replaced by the next armTick once the CPU is busy.
		c.wakePollArmed = true
		c.kern.hv.SetTimer(c.vcpu, c.kern.Now()+wp)
	}
	if !c.kern.hv.SchedOpBlock(c.vcpu) {
		// An interrupt is pending; it will arrive via TakeIRQ or the
		// next Resume. Stay in the (running) idle loop.
		c.wakePollArmed = false
		if c.running {
			irqs := c.kern.hv.ClaimPendingIRQs(c.vcpu)
			var cost sim.Time
			for _, irq := range irqs {
				cost += c.handleIRQ(irq)
			}
			c.execAfter(cost, c.startCurFn())
		}
		return
	}
}

// handleIRQ dispatches one interrupt and returns its handling cost.
func (c *CPU) handleIRQ(irq hypervisor.IRQ) sim.Time {
	switch irq {
	case hypervisor.IRQTimer:
		return c.kern.cfg.IRQCost + c.tick()
	case hypervisor.IRQKick:
		// Reschedule IPI: queued work (if any) is picked up by the
		// startCur that follows IRQ handling.
		return c.kern.cfg.IRQCost
	case hypervisor.IRQSAUpcall:
		// Handled specially in TakeIRQ; an SA never arrives pended.
		return c.kern.cfg.IRQCost
	default:
		return c.kern.cfg.IRQCost
	}
}

// armTick programs the next timer interrupt via the hypervisor. An
// injected tick-jitter fault pushes the expiry late.
func (c *CPU) armTick(now sim.Time) {
	c.tickArmed = true
	c.kern.hv.SetTimer(c.vcpu, now+c.kern.cfg.Tick+c.kern.cfg.Faults.TickDelay(c.kern.cfg.Tick))
}

func (c *CPU) stopTick() {
	if c.tickArmed {
		c.tickArmed = false
		c.kern.hv.StopTimer(c.vcpu)
	}
}

// tick is the timer-interrupt handler: CFS slice enforcement, rt_avg
// update, periodic load balancing, and re-arming the timer.
func (c *CPU) tick() sim.Time {
	c.TicksRun++
	cost := c.kern.cfg.TickCost
	now := c.kern.Now()
	c.updateRTAvg(now)

	if c.cur != nil && c.rq.Len() > 0 {
		nr := c.rq.Len() + 1
		slice := c.kern.cfg.SchedLatency / sim.Time(nr)
		if slice < c.kern.cfg.MinGranularity {
			slice = c.kern.cfg.MinGranularity
		}
		if c.sliceUsed >= slice {
			c.preemptLocalDeferred()
		}
	}
	if now-c.lastBalance >= c.kern.cfg.BalanceInterval {
		c.lastBalance = now
		if c.pullBalance(false) {
			cost += c.kern.cfg.MigratorCost
		}
	}
	// NOHZ idle balancing: a busy CPU with queued work kicks an idle
	// sibling so it can pull (idle CPUs are tickless and cannot balance
	// on their own).
	if c.rq.Len() > 0 {
		for _, o := range c.kern.cpus {
			if o != c && o.GuestIdle() {
				c.kern.kickCPU(o)
				break
			}
		}
	}
	if c.cur != nil || c.rq.Len() > 0 {
		c.armTick(now)
	} else {
		c.tickArmed = false
	}
	return cost
}

// preemptLocalDeferred requeues the current task; used from interrupt
// context where cur is already banked.
func (c *CPU) preemptLocalDeferred() {
	t := c.cur
	if t == nil {
		return
	}
	t.state = TaskReady
	c.cur = nil
	c.rq.Enqueue(t)
	c.kern.spanSync(t)
	// Task selection happens in the startCur that follows the IRQ.
}

// updateRTAvg refreshes the Linux-style rt_avg estimate: an EWMA over
// guest runqueue load plus the hypervisor steal-time fraction.
func (c *CPU) updateRTAvg(now sim.Time) {
	window := now - c.lastRTUpdate
	if window <= 0 {
		return
	}
	steal := c.vcpu.StealTime()
	dSteal := steal - c.lastSteal
	c.lastSteal = steal
	c.lastRTUpdate = now
	load := float64(c.rq.Len())
	if c.cur != nil {
		load++
	}
	stealFrac := float64(dSteal) / float64(window)
	sample := load + stealFrac
	const alpha = 0.25
	c.rtAvg = (1-alpha)*c.rtAvg + alpha*sample
	c.mRTAvg.Set(c.rtAvg)
}
