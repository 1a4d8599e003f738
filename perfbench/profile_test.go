package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttributeFixedStacks(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Engine).Step", "main.matrixPass"}, "sim"},
		// The innermost repo frame wins, even under runtime frames.
		{[]string{"runtime.mallocgc", "repro/internal/hypervisor.(*Hypervisor).SetTimer.func1", "repro/internal/sim.(*Engine).Step"}, "hypervisor"},
		{[]string{"repro/internal/guest.(*CPU).startCur", "repro/internal/hypervisor.(*Hypervisor).schedule"}, "guest"},
		{[]string{"repro/internal/guestsync.(*Mutex).Lock"}, "guestsync"},
		{[]string{"repro/internal/cluster.(*Cluster).route", "repro/internal/sim.(*ShardedEngine).barrier"}, "cluster"},
		{[]string{"repro/internal/decision.(*Ring).Add", "repro/internal/cluster.(*Cluster).recordRoute"}, "decision"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{[]string{"runtime.memmove", "main.(*windowProbe).barrier"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	lp := newLayerProfile()
	lp.add([]string{"repro/internal/sim.(*Engine).Step"}, 30)
	lp.add([]string{"runtime.mallocgc", "repro/internal/guest.(*Kernel).wake"}, 50)
	lp.add([]string{"runtime.gcBgMarkWorker"}, 15)
	lp.add([]string{"main.main"}, 5)
	sum := 0.0
	for _, s := range lp.shares() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	if got := float64(lp.mallocNs) / float64(lp.totalNs); got != 0.5 {
		t.Errorf("malloc share %v, want 0.5", got)
	}
}

// protoBuf is a minimal protobuf writer for hand-built profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *protoBuf) uint(field int, x uint64) { p.varint(uint64(field)<<3 | 0); p.varint(x) }

func (p *protoBuf) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, xs ...uint64) {
	var q protoBuf
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(field, q.b)
}

// TestDecodeHandBuiltProfile feeds the decoder a profile with packed
// and unpacked repeated fields and an inlined location.
func TestDecodeHandBuiltProfile(t *testing.T) {
	var prof protoBuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/hypervisor.(*Hypervisor).tick", "repro/internal/sim.(*Engine).Step", "runtime.mallocgc"}
	vt := func(typ, unit uint64) []byte {
		var q protoBuf
		q.uint(1, typ)
		q.uint(2, unit)
		return q.b
	}
	prof.bytes(1, vt(1, 2))
	prof.bytes(1, vt(3, 4))
	// Sample 1: mallocgc inside hypervisor code; packed fields.
	var s1 protoBuf
	s1.packed(1, 3, 1, 2)
	s1.packed(2, 1, 700)
	prof.bytes(2, s1.b)
	// Sample 2: one location with sim inlined into hypervisor;
	// unpacked fields.
	var s2 protoBuf
	s2.uint(1, 4)
	s2.uint(2, 1)
	s2.uint(2, 300)
	prof.bytes(2, s2.b)
	loc := func(id uint64, fns ...uint64) []byte {
		var q protoBuf
		q.uint(1, id)
		for _, f := range fns {
			var ln protoBuf
			ln.uint(1, f)
			ln.uint(2, 10)
			q.bytes(4, ln.b)
		}
		return q.b
	}
	prof.bytes(4, loc(1, 10))
	prof.bytes(4, loc(2, 11))
	prof.bytes(4, loc(3, 12))
	prof.bytes(4, loc(4, 11, 10))
	fn := func(id, name uint64) []byte {
		var q protoBuf
		q.uint(1, id)
		q.uint(2, name)
		return q.b
	}
	prof.bytes(5, fn(10, 5))
	prof.bytes(5, fn(11, 6))
	prof.bytes(5, fn(12, 7))
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.uint(12, 10_000_000)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	lp := newLayerProfile()
	if err := lp.addPprof(gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	if lp.cpuNs["hypervisor"] != 700 || lp.cpuNs["sim"] != 300 || lp.mallocNs != 700 || lp.totalNs != 1000 {
		t.Fatalf("got %v malloc %d total %d", lp.cpuNs, lp.mallocNs, lp.totalNs)
	}
}

var spinSink float64

// TestDecodeRuntimeProfile decodes a real CPU profile of a busy loop
// in this package: its samples land in the bench bucket.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	lp := newLayerProfile()
	if err := lp.addPprof(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if lp.totalNs == 0 {
		t.Skip("no samples taken")
	}
	if share := lp.shares()[bucketBench]; share < 0.5 {
		t.Errorf("bench share %v of a profile spent in this package; buckets %v", share, lp.cpuNs)
	}
}
