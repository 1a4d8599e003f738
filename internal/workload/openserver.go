package workload

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/sim"
	"repro/internal/span"
)

// Open-loop server mode: requests arrive from simulated external
// clients with exponential inter-arrival times and queue until a worker
// thread picks them up, so recorded latency includes queueing delay.
// This complements the closed-loop mode (ServerSpec.Arrival == 0) and
// makes latency-vs-load studies possible: an interfered, slowed server
// builds queues and its tail latency explodes well before throughput
// does.

// Request is one queued request: its original arrival stamp plus the
// blame span riding with it (nil when causal tracing is off). The span
// follows the request through queueing, worker binding, migration
// carry-over, and service.
type Request struct {
	Arrival sim.Time
	Span    *span.Span
}

type openServerShared struct {
	*serverShared
	queue    sim.Queue[Request] // waiting requests, arrival order
	sleepers sim.Queue[openSleeper]
	kern     *guest.Kernel
	genRNG   *sim.RNG
	Dropped  int64
	// gate is non-nil in remote-gate mode (NewRemoteServer): arrivals
	// are pushed in by an external router instead of generated here.
	gate *RemoteGate
}

type openSleeper struct {
	t    *guest.Task
	cont func()
}

// openWorker is one server thread in open-loop mode.
type openWorker struct {
	sh   *openServerShared
	rng  *sim.RNG
	reqs int

	// The request in progress. A worker serves one request at a time,
	// so its continuations read this state instead of capturing it, and
	// are bound once (on first use) instead of allocated per request.
	t      *guest.Task
	resume func()
	req    Request
	locked bool

	takeFn                             func(t *guest.Task, resume func())
	retakeFn, servedFn, lockedFn, csFn func()
}

// Step implements guest.Program: take the next request or sleep.
func (w *openWorker) Step(t *guest.Task) guest.Action {
	sh := w.sh
	if t.Kernel().Now() >= sh.until && sh.queue.Len() == 0 {
		return guest.Exit()
	}
	if w.takeFn == nil {
		w.takeFn = w.take
		w.retakeFn = func() { w.take(w.t, w.resume) }
		w.servedFn = w.served
		w.lockedFn = w.lockHeld
		w.csFn = w.csDone
	}
	return guest.RunThen(0, w.takeFn)
}

// take pops a request and services it, or sleeps until one arrives.
func (w *openWorker) take(t *guest.Task, resume func()) {
	sh := w.sh
	w.t, w.resume = t, resume
	if sh.queue.Len() == 0 {
		if t.Kernel().Now() >= sh.until {
			resume() // Step will exit
			return
		}
		sh.sleepers.Push(openSleeper{t: t, cont: w.retakeFn})
		t.Kernel().BlockTask(t)
		return
	}
	req := sh.queue.Pop()
	if g := sh.gate; g != nil {
		g.inflight++
	}
	if req.Span != nil {
		// A worker owns the request from here: the span leaves the
		// queue phase and starts tracking the task's scheduling fate.
		req.Span.BeginPhase(t.Kernel().Now(), "service", span.CatKernel)
		t.Kernel().AttachSpan(t, req.Span)
	}
	w.reqs++
	w.req = req
	w.locked = sh.spec.LockEvery > 0 && w.reqs%sh.spec.LockEvery == 0
	t.Kernel().RunInTask(t, w.rng.Exp(sh.spec.Service), w.servedFn)
}

// served runs when the service time has elapsed. Every LockEvery-th
// request then touches the shared mutex for LockCS — the
// lock-holder-preemption surface of the open loop.
func (w *openWorker) served() {
	if !w.locked {
		w.finish()
		return
	}
	w.sh.mu.Lock(w.t, w.lockedFn)
}

func (w *openWorker) lockHeld() {
	w.t.Kernel().RunInTask(w.t, w.sh.spec.LockCS, w.csFn)
}

func (w *openWorker) csDone() {
	w.sh.mu.Unlock(w.t)
	w.finish()
}

// finish records the completed request and resumes the worker.
func (w *openWorker) finish() {
	sh, t := w.sh, w.t
	now := t.Kernel().Now()
	sh.stats.Requests++
	lat := now - w.req.Arrival
	sh.stats.Latency.Add(lat)
	if el := now - sh.startedAt; el > sh.stats.Elapsed {
		sh.stats.Elapsed = el
	}
	if sp := t.Kernel().DetachSpan(t); sp != nil {
		sp.Finish(now)
	}
	if g := sh.gate; g != nil {
		g.inflight--
		g.served++
		if g.OnServed != nil {
			g.OnServed(lat)
		}
	}
	w.resume()
}

// generate schedules the next external arrival.
func (sh *openServerShared) generate() {
	now := sh.kern.Now()
	if now >= sh.until {
		// Run down: wake every sleeper so workers can exit.
		for _, s := range sh.sleepers.TakeAll() {
			sh.kern.WakeTask(s.t, s.cont)
		}
		return
	}
	sh.queue.Push(Request{Arrival: now, Span: sh.kern.Spans().Start(now)})
	if sh.sleepers.Len() > 0 {
		s := sh.sleepers.Pop()
		sh.kern.WakeTask(s.t, s.cont)
	}
	sh.kern.Engine().After(sh.genRNG.Exp(sh.spec.Arrival), "arrival", sh.generate)
}

// newOpenServer wires the open-loop variant; called from NewServer when
// spec.Arrival > 0.
func newOpenServer(kern *guest.Kernel, spec ServerSpec, seed uint64, stats *ServerStats) *Instance {
	in := &Instance{Name: spec.Name, kern: kern}
	in.spawn = func() {
		sh := &openServerShared{
			serverShared: &serverShared{
				spec:      spec,
				stats:     stats,
				rng:       sim.NewRNG(seed ^ 0x09e27),
				startedAt: kern.Now(),
				until:     kern.Now() + spec.Duration,
			},
			kern: kern,
		}
		sh.genRNG = sh.rng.Fork(999)
		if spec.LockEvery > 0 {
			sh.mu = guestsync.NewMutex(kern)
		}
		for i := 0; i < spec.Threads; i++ {
			w := &openWorker{sh: sh, rng: sh.rng.Fork(uint64(i))}
			kern.Spawn(fmt.Sprintf("%s-%d", spec.Name, i), w, i%len(kern.CPUs()))
		}
		// External clients: arrivals run on the engine, not on a vCPU.
		kern.Engine().After(sh.genRNG.Exp(spec.Arrival), "arrival", sh.generate)
		// A final sweep at the deadline releases any sleeping workers.
		kern.Engine().At(sh.until, "arrival-end", sh.generate)
	}
	return in
}
