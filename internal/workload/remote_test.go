package workload_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func remoteRig(t *testing.T, threads int, service sim.Time) (*sim.Engine, *workload.Instance, *workload.RemoteGate) {
	t.Helper()
	eng, kern := rig(t, threads)
	in, gate := workload.NewRemoteServer(kern, workload.ServerSpec{
		Name: "remote", Threads: threads, Service: service,
	}, 1, nil)
	in.Start()
	kern.Start()
	return eng, in, gate
}

func TestRemoteGateServesSubmissions(t *testing.T) {
	eng, _, gate := remoteRig(t, 2, 1*sim.Millisecond)
	const n = 200
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 2 * sim.Millisecond
		eng.At(at, "submit", func() {
			if !gate.Submit(eng.Now()) {
				t.Error("submit rejected on an open gate")
			}
		})
	}
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gate.Submitted() != n || gate.Served() != n {
		t.Fatalf("submitted %d served %d, want %d", gate.Submitted(), gate.Served(), n)
	}
	if got := gate.Served() + gate.InFlight() + int64(gate.QueueLen()); got != gate.Submitted() {
		t.Fatalf("conservation: served+inflight+queued = %d, submitted = %d", got, gate.Submitted())
	}
}

func TestRemoteGateLatencyIncludesPreSubmitDelay(t *testing.T) {
	// A request carried across a migration keeps its original arrival
	// stamp; the 50 ms it spent in transit must show in the measured
	// latency even though the gate only saw it afterwards.
	eng, _, gate := remoteRig(t, 1, 1*sim.Millisecond)
	var lat sim.Time
	gate.OnServed = func(l sim.Time) { lat = l }
	eng.At(50*sim.Millisecond, "late-submit", func() {
		gate.Submit(0) // stamped at t=0, submitted at t=50ms
	})
	if err := eng.Run(1 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gate.Served() != 1 {
		t.Fatalf("served = %d, want 1", gate.Served())
	}
	if lat < 50*sim.Millisecond {
		t.Fatalf("latency %v does not include the 50ms pre-submit delay", lat)
	}
}

func TestRemoteGateCloseCarriesQueue(t *testing.T) {
	// One slow worker, a burst of requests, then an early close: the
	// requests no worker picked up come back for the migration to carry.
	eng, _, gate := remoteRig(t, 1, 10*sim.Millisecond)
	const n = 10
	var carried []workload.Request
	eng.At(1*sim.Millisecond, "burst", func() {
		for i := 0; i < n; i++ {
			gate.Submit(eng.Now())
		}
	})
	eng.At(5*sim.Millisecond, "close", func() {
		carried = gate.Close()
		if !gate.Closed() {
			t.Error("gate not closed after Close")
		}
		if gate.Submit(eng.Now()) {
			t.Error("submit accepted on a closed gate")
		}
	})
	if err := eng.Run(1 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(carried) == 0 {
		t.Fatal("close carried no queued requests")
	}
	if got := gate.Served() + int64(len(carried)); got != n {
		t.Fatalf("served %d + carried %d != submitted %d", gate.Served(), len(carried), n)
	}
	// Carried stamps are the original arrival times, all ≤ close time.
	for _, req := range carried {
		if req.Arrival > 5*sim.Millisecond {
			t.Fatalf("carried stamp %v is later than the close", req.Arrival)
		}
	}
	if gate.Close() != nil {
		t.Fatal("second Close returned a non-empty queue")
	}
}

func TestRemoteGateSubmitBeforeStartPanics(t *testing.T) {
	eng, kern := rig(t, 1)
	_, gate := workload.NewRemoteServer(kern, workload.ServerSpec{
		Name: "early", Threads: 1, Service: sim.Millisecond,
	}, 1, nil)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("Submit before Start did not panic")
		}
	}()
	gate.Submit(0)
}

// TestRemoteGateCycleZeroAllocs: the request queue and the sleeper
// list are FIFOs that reuse their storage, so a steady stream of
// submit → wake → take → serve → sleep cycles allocates nothing.
func TestRemoteGateCycleZeroAllocs(t *testing.T) {
	eng, _, gate := remoteRig(t, 1, 100*sim.Microsecond)
	cycle := func() {
		gate.Submit(eng.Now())
		gate.Submit(eng.Now())
		if err := eng.Run(eng.Now() + sim.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("submit/serve cycle allocates %v allocs/op, want 0", allocs)
	}
	if gate.Served() != gate.Submitted() || gate.Served() != 2*(10+101) {
		t.Fatalf("served %d of %d submitted", gate.Served(), gate.Submitted())
	}
}
