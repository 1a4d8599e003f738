package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The benchmark's inputs are pure functions of the workload seed: the
// simulator only ever sees what these generators return.

// matrixCase is one host-matrix simulation: a 4-vCPU foreground VM
// running a catalog benchmark in its default sync mode on a 4-pCPU
// host, next to hogs CPU-hog vCPUs, under one strategy.
type matrixCase struct {
	Bench    workload.Benchmark
	Strategy core.Strategy
	Hogs     int
	Seed     uint64
}

// hogLevels are the interference levels of the paper's Figures 5-6.
var hogLevels = []int{1, 2, 4}

// matrixCases lists the host-matrix simulations for seed: all 21
// catalog benchmarks × the four strategies × three hog levels, each
// with its own model seed drawn from seed. The order is fixed so that
// per-case statistics line up across passes and seeds.
func matrixCases(seed uint64) []matrixCase {
	rng := sim.NewRNG(seed ^ 0x6d617472)
	var out []matrixCase
	for _, b := range append(workload.PARSEC(), workload.NPB()...) {
		for _, h := range hogLevels {
			// One model seed per (benchmark, level): the strategies
			// then face identical inputs, so irs_gain compares like
			// with like.
			s := rng.Uint64() | 1
			for _, st := range core.Strategies() {
				out = append(out, matrixCase{Bench: b, Strategy: st, Hogs: h, Seed: s})
			}
		}
	}
	return out
}

// scenario materialises the case the way the paper's §5.1 setup does:
// one vCPU per pCPU, hogs pinned onto the first pCPUs.
func (mc matrixCase) scenario() core.Scenario {
	fg := core.BenchmarkVM("fg", mc.Bench, mc.Bench.DefaultMode(), 4, core.SeqPins(0, 4))
	fg.IRS = mc.Strategy == core.StrategyIRS
	return core.Scenario{
		PCPUs:    4,
		Strategy: mc.Strategy,
		Seed:     mc.Seed,
		Horizon:  900 * sim.Second,
		VMs:      []core.VMSpec{fg, core.HogVM("bg", mc.Hogs, core.SeqPins(0, mc.Hogs))},
	}
}

func (mc matrixCase) String() string {
	return fmt.Sprintf("%s/%s/%dhog", mc.Bench.Name, mc.Strategy, mc.Hogs)
}

// rackInput is the generated rack load: a topology.ParseLoadSpec text
// and the cluster seed it runs with.
type rackInput struct {
	Spec string
	Seed uint64
}

// rackLoad generates the 2-zone × 8-host outage rig for seed, shaped
// like the scale experiment's 2z8h-outage: a three-stage arrival ramp,
// one zone going dark after the ramp, the burn-rate alert and the replica
// autoscaler, then a long steady tail at the peak rate. The seed moves
// the ramp stage times, the outage zone and start, and the cluster
// seed. It never touches the lookahead, which changes results.
func rackLoad(seed uint64) rackInput {
	rng := sim.NewRNG(seed ^ 0x7261636b)
	ms := func(lo, hi int) string { return (time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond).String() }
	mid := ms(1750, 2250)
	peak := ms(3750, 4250)
	zone := rng.Intn(2)
	at := ms(5500, 6500)
	spec := "topo:zones=2,hosts=8,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
		"load:arrival=1500us,service=2ms,slo=25ms,duration=40s,drain=3s; " +
		"ramp:1500us@0,1ms@" + mid + ",450us@" + peak + "; " +
		"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=400ms; " +
		fmt.Sprintf("outage:zone=%d,at=%s,for=1200ms; ", zone, at) +
		"alert:budget=0.02,fast=500ms,slow=2s,burn=3; " +
		"autoscale:max=8,step=2,cooldown=1500ms,down-after=1500ms"
	return rackInput{Spec: spec, Seed: rng.Uint64() | 1}
}
