package core

import (
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file provides convenience VMSpec builders for the standard
// shapes in the paper's evaluation: a foreground VM running a catalog
// benchmark, an interference VM running n CPU hogs, a background VM
// looping a real parallel application, and server VMs.

// BenchmarkVM builds a foreground VM running bench once. mode 0 keeps
// the benchmark's native wait policy. pins maps vCPUs to pCPUs (nil =
// unpinned).
func BenchmarkVM(name string, bench workload.Benchmark, mode workload.SyncMode, vcpus int, pins []int) VMSpec {
	return VMSpec{
		Name:  name,
		VCPUs: vcpus,
		Pin:   pins,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			return bench.Instantiate(k, mode, seed)
		},
	}
}

// HogVM builds an interference VM with one vCPU per hog, pinned to the
// given pCPUs (nil = unpinned).
func HogVM(name string, hogs int, pins []int) VMSpec {
	return VMSpec{
		Name:   name,
		VCPUs:  hogs,
		Pin:    pins,
		Attach: attachHogs,
	}
}

// attachHogs runs one hog per vCPU of the kernel's VM. It captures
// nothing, so HogVM allocates no closure.
func attachHogs(k *guest.Kernel, _ uint64) *workload.Instance {
	return workload.NewHog(k, len(k.CPUs()))
}

// BackgroundVM builds an interfering VM that loops a real parallel
// application with nthreads threads (the fluidanimate/streamcluster/
// LU/UA backgrounds of Figures 5-7 and 9-10).
func BackgroundVM(name string, bench workload.Benchmark, mode workload.SyncMode, nthreads int, pins []int) VMSpec {
	return VMSpec{
		Name:   name,
		VCPUs:  nthreads,
		Pin:    pins,
		Repeat: true,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			b := bench
			switch b.Kind {
			case workload.KindParallel:
				b.Parallel.Threads = nthreads
			case workload.KindWorkSteal:
				b.WorkSteal.Threads = nthreads
			}
			return b.Instantiate(k, mode, seed)
		},
	}
}

// AttackerVM builds an adversarial VM running the attacker described
// by spec (see workload.ParseAttack) on vcpus vCPUs.
func AttackerVM(name string, spec workload.AttackSpec, vcpus int, pins []int) VMSpec {
	return VMSpec{
		Name:  name,
		VCPUs: vcpus,
		Pin:   pins,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			return workload.NewAttacker(k, spec, seed)
		},
	}
}

// ServerVM builds a VM running a server workload; stats lands in the
// returned pointer after the run.
func ServerVM(name string, spec workload.ServerSpec, vcpus int, pins []int) (VMSpec, **workload.ServerStats) {
	stats := new(*workload.ServerStats)
	return VMSpec{
		Name:  name,
		VCPUs: vcpus,
		Pin:   pins,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			in, st := workload.NewServer(k, spec, seed)
			*stats = st
			return in
		},
	}, stats
}

// seqPins backs SeqPins for small machines.
var seqPins = func() (a [64]int) {
	for i := range a {
		a[i] = i
	}
	return a
}()

// SeqPins returns [first, first+1, ...] of length n — the standard
// one-vCPU-per-pCPU pinning of §5.1. The result may share its backing
// array with other calls: treat it as read-only.
func SeqPins(first, n int) []int {
	if first >= 0 && n >= 0 && first+n <= len(seqPins) {
		return seqPins[first : first+n : first+n]
	}
	pins := make([]int, n)
	for i := range pins {
		pins[i] = first + i
	}
	return pins
}

// RepeatRuns executes the scenario `runs` times with distinct seeds and
// returns the foreground VM's runtimes in seconds (the paper averages
// 5 runs).
func RepeatRuns(scn Scenario, fgVM string, runs int) ([]float64, error) {
	var rts []float64
	for i := 0; i < runs; i++ {
		s := scn
		s.Seed = scn.Seed + uint64(i)*7919
		res, err := Run(s)
		if err != nil {
			return rts, err
		}
		vr := res.VM(fgVM)
		if vr == nil || vr.Runtime == 0 {
			return rts, ErrUnfinished
		}
		rts = append(rts, vr.Runtime.Seconds())
	}
	return rts, nil
}

// MeanRuntime runs the scenario `runs` times and averages the
// foreground runtime in seconds.
func MeanRuntime(scn Scenario, fgVM string, runs int) (float64, error) {
	rts, err := RepeatRuns(scn, fgVM, runs)
	if err != nil {
		return 0, err
	}
	return metrics.Summarize(rts).Mean, nil
}

// Utilization returns the VM's CPU consumption relative to a fair
// share over the elapsed interval (Figure 2's metric).
func Utilization(res *Result, vmName string, fairShare sim.Time) float64 {
	vr := res.VM(vmName)
	if vr == nil || fairShare <= 0 {
		return 0
	}
	return float64(vr.CPUTime) / float64(fairShare)
}
