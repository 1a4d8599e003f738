package guest_test

import (
	"testing"

	"repro/internal/sim"
)

// TestSegmentStartZeroAllocs pins the guest hot path's steady state:
// with the per-CPU and per-task callbacks bound, stepping a program,
// starting its compute segments, CFS slice preemption between two
// tasks, timer ticks and the kernel-path deferrals allocate nothing.
func TestSegmentStartZeroAllocs(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	for _, name := range []string{"a", "b"} {
		r.kern.Spawn(name, &computeProg{chunk: 100 * sim.Microsecond, n: 1 << 30}, 0)
	}
	r.kern.Start()
	if err := r.eng.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	cpu := r.kern.CPU(0)
	switches := cpu.Switches
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.eng.Run(r.eng.Now() + 5*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("guest hot path allocates %v allocs/op, want 0", allocs)
	}
	if cpu.Switches == switches {
		t.Fatal("no task switches in 255ms: the rig did not exercise CFS preemption")
	}
}
