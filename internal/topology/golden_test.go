package topology_test

import (
	"flag"
	"testing"

	"repro/internal/kv/kvtest"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/loadspec.golden")

// TestParseLoadSpecGolden pins ParseLoadSpec's accept set and the
// canonical String of every accepted spec over the fuzz seeds, the
// committed corpus, the unit-test inputs and probes of the field
// policy.
func TestParseLoadSpecGolden(t *testing.T) {
	unit := []string{
		"# acceptance rig\ntopo:zones=2,hosts=4,pcpus=4\nsched:policy=ia,strategy=irs # inner interference-aware level\n" +
			"load:arrival=1ms,service=2ms,slo=25ms,duration=4s\noutage:zone=0,at=1s,for=500ms\noutage:zone=1,at=2s,for=500ms",
		"topo:zones=2,hosts=4; topo:zones=1,hosts=4",
		"topo:zoness=2",
		"load:arrival=fast",
		"sched:policy=psychic",
		"sched:strategy=magic",
		"topo:zones=2,hosts=4; outage:zone=5,at=1s,for=1s",
		"outage:zone=0,at=1s,for=0s",
		"diurnal:period=2s,swing=1.5",
		"alert:budget=0.02; autoscale:min=4,max=2",
		"topo:zones=3,hosts=2,pcpus=8; diurnal:period=6s,swing=0.4,steps=12; tenants:servers=1,ants=0",
		"ramp:2ms@0,1ms@1s",
		"load:arrival=1ms,duration=4s; diurnal:period=2s,swing=0.5,steps=4",
		"topo:zones=2,hosts=8",
	}
	probes := []string{
		"alert:budget=0.02,burn=+Inf",
		"alert:budget=0.02,burn=NaN",
		"alert:budget=0.02",
		"alert:budget=0.02,fast=1s; autoscale:max=8,min=2",
		"sched:policy=",
		"sched:policy=IA,strategy=IRS,migrate=YES",
		"sched:overcommit=+Inf",
		"diurnal:period=2s,swing=NaN",
		"topo:",
		"topo:zones=2,",
		"topo:,zones=2",
		"ramp:1ms@0,,2ms@1s",
		"ramp: 1ms @ 0 , 2ms @ 1s ",
		"Topo:Zones=2,HOSTS=3",
		"topo:zones=2 # trailing comment\n\n;",
		"tenants:servers=1,server-threads=3,ants=0",
		"outage:zone=0,at=1s,for=1s;outage:zone=0,at=3s,for=1s",
		"autoscale:max=8; alert:budget=0.1",
	}
	kvtest.Golden(t, "testdata/loadspec.golden", *update, func(s string) (string, error) {
		spec, err := topology.ParseLoadSpec(s)
		return spec.String(), err
	}, loadSpecSeeds, kvtest.Corpus(t, "FuzzParseLoadSpec"), unit, probes)
}
