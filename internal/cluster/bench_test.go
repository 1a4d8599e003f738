package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// Simulation-throughput benchmarks: how many engine events per
// wall-clock second the cluster dispatches on the window coordinator.
// events/sec is the hardware-portable progress metric the benchjson
// gate tracks (higher is better): a coordinator or mailbox regression
// shows up as a throughput drop.

// benchCluster runs the default rig and reports events/sec.
func benchCluster(b *testing.B) {
	b.Helper()
	var events uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		c, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		wall += time.Since(start)
		events += res.Events
	}
	if wall > 0 {
		b.ReportMetric(float64(events)/wall.Seconds(), "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkClusterSerial and BenchmarkClusterSharded run the same rig;
// both names stay so committed benchmark snapshots keep comparing.
func BenchmarkClusterSerial(b *testing.B)  { benchCluster(b) }
func BenchmarkClusterSharded(b *testing.B) { benchCluster(b) }

// BenchmarkClusterShardedRack scales the rig to a 16-host rack, where
// most windows leave most host shards idle.
func BenchmarkClusterShardedRack(b *testing.B) {
	var events uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Hosts = 16
		cfg.Duration = 5 * sim.Second
		cfg.Drain = sim.Second
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		wall += time.Since(start)
		events += res.Events
	}
	if wall > 0 {
		b.ReportMetric(float64(events)/wall.Seconds(), "events/sec")
	}
}
