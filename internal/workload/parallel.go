// Package workload models the benchmarks from the paper's evaluation
// as synchronization-structure programs: data-parallel loops with
// blocking or spinning barriers (PARSEC/NPB), mutex-based point-to-
// point synchronization (x264, fluidanimate), pipeline parallelism
// (dedup, ferret), user-level work stealing (raytrace), multi-threaded
// servers (SPECjbb, ab), and the CPU-hog interference micro-benchmark.
// Parameters encode each benchmark's granularity and sync type; the
// absolute work amounts are scaled so one run takes a few virtual
// seconds.
package workload

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/sim"
)

// SyncMode selects blocking (pthread/OMP passive) vs spinning
// (OMP active wait policy) synchronization primitives.
type SyncMode int

const (
	// SyncBlocking uses sleeping mutexes and barriers.
	SyncBlocking SyncMode = iota + 1
	// SyncSpinning uses busy-wait barriers and spinlocks.
	SyncSpinning
)

func (m SyncMode) String() string {
	if m == SyncSpinning {
		return "spinning"
	}
	return "blocking"
}

// barrier abstracts blocking and spinning barriers.
type barrier interface {
	Wait(t *guest.Task, cont func())
}

// lock abstracts blocking mutexes and spinlocks.
type lock interface {
	Lock(t *guest.Task, cont func())
	Unlock(t *guest.Task)
}

// ParallelSpec describes a data-parallel benchmark: threads iterate
// {compute, optional critical sections, optional barrier}.
type ParallelSpec struct {
	Name       string
	Threads    int // 0 = one per vCPU
	Mode       SyncMode
	Iterations int
	// Work is the mean per-thread compute per iteration.
	Work sim.Time
	// Imbalance is the fractional jitter applied to each thread's work
	// each iteration (natural load imbalance of the application).
	Imbalance float64
	// LocksPerIter critical sections of CSLen each are embedded evenly
	// in every iteration's compute.
	LocksPerIter int
	CSLen        sim.Time
	// BarrierEvery joins a barrier after this many iterations
	// (0 = never, 1 = every iteration).
	BarrierEvery int
	// TicketLock makes spinning-mode locks FIFO ticket locks instead of
	// test-and-set — the acquisition-order guarantee that amplifies
	// lock-waiter preemption (used by the ticket-lock ablation).
	TicketLock bool
}

// TotalWork returns the nominal single-thread compute of the benchmark.
func (s ParallelSpec) TotalWork() sim.Time {
	per := s.Work + sim.Time(s.LocksPerIter)*s.CSLen
	return sim.Time(s.Iterations) * per
}

// parallelShared is the state shared by all threads of one instance.
type parallelShared struct {
	spec ParallelSpec
	bar  barrier
	lk   lock
	rng  *sim.RNG
}

// parallelProg is one thread of a ParallelSpec instance.
type parallelProg struct {
	sh   *parallelShared
	iter int
	rng  *sim.RNG

	// The iteration in progress. A thread runs one iteration at a time,
	// so its continuations read this state instead of capturing it, and
	// are bound once (on first use) instead of allocated per iteration.
	t           *guest.Task
	resume      func()
	chunk       sim.Time
	remaining   int
	needBarrier bool

	barrierFn, chunkFn         func(t *guest.Task, resume func())
	lockedFn, csDoneFn, nextFn func()
}

// Step implements guest.Program.
func (p *parallelProg) Step(t *guest.Task) guest.Action {
	sp := &p.sh.spec
	if p.iter >= sp.Iterations {
		return guest.Exit()
	}
	p.iter++
	work := p.rng.Jitter(sp.Work, sp.Imbalance)
	p.needBarrier = sp.BarrierEvery > 0 && p.iter%sp.BarrierEvery == 0

	if sp.LocksPerIter <= 0 {
		if !p.needBarrier {
			return guest.Run(work)
		}
		if p.barrierFn == nil {
			p.barrierFn = p.sh.bar.Wait
		}
		return guest.RunThen(work, p.barrierFn)
	}

	// Interleave critical sections within the compute: split the work
	// into LocksPerIter chunks, each followed by lock; CS; unlock.
	p.chunk = work / sim.Time(sp.LocksPerIter)
	p.remaining = sp.LocksPerIter
	if p.chunkFn == nil {
		p.chunkFn = p.doChunk
		p.lockedFn = p.locked
		p.csDoneFn = p.csDone
		p.nextFn = func() { p.doChunk(p.t, p.resume) }
	}
	return guest.RunThen(p.chunk, p.chunkFn)
}

// doChunk ends a compute chunk by taking the lock.
func (p *parallelProg) doChunk(t *guest.Task, resume func()) {
	p.t, p.resume = t, resume
	p.sh.lk.Lock(t, p.lockedFn)
}

// locked runs the critical section.
func (p *parallelProg) locked() {
	p.t.Kernel().RunInTask(p.t, p.sh.spec.CSLen, p.csDoneFn)
}

// csDone releases the lock, then computes the next chunk or finishes
// the iteration (joining the barrier when one is due).
func (p *parallelProg) csDone() {
	t := p.t
	p.sh.lk.Unlock(t)
	p.remaining--
	if p.remaining == 0 {
		if p.needBarrier {
			p.sh.bar.Wait(t, p.resume)
		} else {
			p.resume()
		}
		return
	}
	t.Kernel().RunInTask(t, p.chunk, p.nextFn)
}

// Instance is one running workload attached to a guest kernel.
type Instance struct {
	Name string
	kern *guest.Kernel

	// Repeat re-runs the workload when it completes (background /
	// interfering applications run in a loop, §5.4).
	Repeat bool
	// Endless marks workloads that never complete (CPU hogs).
	Endless bool

	StartedAt   sim.Time
	FinishedAt  sim.Time // of the first completion
	Completions int
	lastStart   sim.Time
	runTimes    []sim.Time

	// OnFinish fires at every completion (after bookkeeping).
	OnFinish func()

	spawn func()
}

// Kernel returns the guest kernel the instance runs on.
func (in *Instance) Kernel() *guest.Kernel { return in.kern }

// Runtime returns the duration of the first complete run (the paper's
// per-benchmark performance metric), or 0 if unfinished.
func (in *Instance) Runtime() sim.Time {
	if in.Completions == 0 {
		return 0
	}
	return in.runTimes[0]
}

// MeanRuntime averages all completed runs (used for the repeating
// background applications).
func (in *Instance) MeanRuntime() sim.Time {
	if len(in.runTimes) == 0 {
		return 0
	}
	var sum sim.Time
	for _, r := range in.runTimes {
		sum += r
	}
	return sum / sim.Time(len(in.runTimes))
}

// start wires completion tracking into the kernel and spawns tasks.
func (in *Instance) start() {
	in.StartedAt = in.kern.Now()
	in.lastStart = in.StartedAt
	in.kern.OnAllExited = func() {
		now := in.kern.Now()
		in.Completions++
		in.runTimes = append(in.runTimes, now-in.lastStart)
		if in.Completions == 1 {
			in.FinishedAt = now
		}
		if in.OnFinish != nil {
			in.OnFinish()
		}
		if in.Repeat {
			in.lastStart = now
			in.spawn()
		}
	}
	in.spawn()
}

// NewParallel instantiates a data-parallel benchmark on kern. Threads
// are placed round-robin over the guest CPUs.
func NewParallel(kern *guest.Kernel, spec ParallelSpec, seed uint64) *Instance {
	threads := spec.Threads
	if threads <= 0 {
		threads = len(kern.CPUs())
	}
	in := &Instance{Name: spec.Name, kern: kern}
	in.spawn = func() {
		sh := &parallelShared{spec: spec, rng: sim.NewRNG(seed ^ 0xbadc0de)}
		if spec.Mode == SyncSpinning {
			sh.bar = guestsync.NewSpinBarrier(kern, threads)
			if spec.TicketLock {
				sh.lk = guestsync.NewTicketLock(kern)
			} else {
				sh.lk = guestsync.NewSpinLock(kern)
			}
		} else {
			sh.bar = guestsync.NewBarrier(kern, threads)
			sh.lk = guestsync.NewMutex(kern)
		}
		for i := 0; i < threads; i++ {
			p := &parallelProg{sh: sh, rng: sh.rng.Fork(uint64(i))}
			kern.Spawn(fmt.Sprintf("%s-%d", spec.Name, i), p, i%len(kern.CPUs()))
		}
	}
	return in
}

// Start spawns the workload's tasks and begins tracking completions.
// Call once, before or after Kernel.Start.
func (in *Instance) Start() { in.start() }
