package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestLabelsString(t *testing.T) {
	if got := (Labels{}).String(); got != "" {
		t.Fatalf("empty labels = %q", got)
	}
	l := Labels{Sub: "hv", VM: "fg", CPU: "fg/v0", Kind: "running"}
	want := `{sub="hv",vm="fg",cpu="fg/v0",kind="running"}`
	if got := l.String(); got != want {
		t.Fatalf("labels = %q, want %q", got, want)
	}
	if got := (Labels{VM: "fg"}).String(); got != `{vm="fg"}` {
		t.Fatalf("partial labels = %q", got)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x", Labels{})
	g := r.Gauge("y", Labels{})
	h := r.Histogram("z", Labels{})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// Every mutating/reading method must be a no-op on nil handles: this
	// is the contract that lets scheduler hot paths skip guards.
	c.Inc()
	c.Add(5)
	c.AddTime(sim.Second)
	g.Set(1.5)
	h.Observe(sim.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 ||
		h.Mean() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if qs := h.Quantiles(50, 99); len(qs) != 2 || qs[0] != 0 || qs[1] != 0 {
		t.Fatalf("nil histogram quantiles = %v", qs)
	}
	r.GaugeFunc("f", Labels{}, func() float64 { return 1 })
	if r.Len() != 0 {
		t.Fatal("nil registry Len must be 0")
	}
	if r.FindCounter("x", Labels{}) != nil || r.FindHistogram("z", Labels{}) != nil {
		t.Fatal("nil registry Find* must return nil")
	}
	var s *Sampler
	s.Start(sim.NewEngine())
	s.Sample()
	if s.AllSeries() != nil || s.SeriesByName("x", Labels{}) != nil {
		t.Fatal("nil sampler must be inert")
	}
}

func TestRegistryIdentityAndValues(t *testing.T) {
	r := NewRegistry()
	l := Labels{Sub: "hv", VM: "fg"}
	c := r.Counter("events_total", l)
	c.Inc()
	c.Add(2)
	if c2 := r.Counter("events_total", l); c2 != c {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same name, different labels: a distinct instance.
	other := r.Counter("events_total", Labels{Sub: "hv", VM: "bg"})
	if other == c || other.Value() != 0 {
		t.Fatal("different labels must yield a fresh counter")
	}

	g := r.Gauge("load", l)
	g.Set(2.5)
	if r.Gauge("load", l).Value() != 2.5 {
		t.Fatal("gauge identity broken")
	}

	h := r.Histogram("wait_ns", l)
	for _, v := range []sim.Time{30, 10, 20} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 60 || h.Mean() != 20 || h.Max() != 30 {
		t.Fatalf("histogram stats: count=%d sum=%d mean=%d max=%d",
			h.Count(), h.Sum(), h.Mean(), h.Max())
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.FindCounter("events_total", l) != c || r.FindHistogram("wait_ns", l) != h {
		t.Fatal("Find* must return the registered instance")
	}
	if r.FindCounter("missing", l) != nil || r.FindHistogram("events_total", l) != nil {
		t.Fatal("Find* must not register and must check kind")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m", Labels{})
	r.Gauge("m", Labels{})
}

func TestVisitDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", Labels{VM: "z"}).Inc()
	r.Counter("b_total", Labels{VM: "a"}).Inc()
	r.Gauge("a_gauge", Labels{}).Set(1)
	r.GaugeFunc("c_fn", Labels{}, func() float64 { return 7 })
	var got []string
	r.Visit(func(name string, l Labels, c *Counter, g *Gauge, h *Histogram, sk *Sketch) {
		got = append(got, name+l.String())
		if name == "c_fn" && g.Value() != 7 {
			t.Fatalf("polled gauge = %v", g.Value())
		}
	})
	want := []string{"a_gauge", `b_total{vm="a"}`, `b_total{vm="z"}`, "c_fn"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("visit order = %v, want %v", got, want)
	}
}

func TestSamplerWithEngine(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ticks_total", Labels{Sub: "hv"})
	eng := sim.NewEngine()
	eng.Every(sim.Millisecond, "tick", func() { c.Inc() })

	s := NewSampler(r, 10*sim.Millisecond)
	s.Start(eng)
	if err := eng.Run(35 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Samples() != 3 {
		t.Fatalf("samples = %d, want 3 (t=10,20,30ms)", s.Samples())
	}
	se := s.SeriesByName("ticks_total", Labels{Sub: "hv"})
	if se == nil || len(se.Points) != 3 {
		t.Fatalf("series = %+v", se)
	}
	// Each snapshot is stamped with virtual time and the value then.
	if se.Points[0].At != 10*sim.Millisecond || se.Points[2].At != 30*sim.Millisecond {
		t.Fatalf("point times = %v, %v", se.Points[0].At, se.Points[2].At)
	}
	if se.Points[0].V >= se.Points[2].V {
		t.Fatalf("counter series should grow: %v vs %v", se.Points[0].V, se.Points[2].V)
	}
}

func TestSamplerHistogramDerivedSeries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wait_ns", Labels{VM: "fg"})
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Time(i))
	}
	s := NewSampler(r, sim.Millisecond)
	s.Sample()
	for _, field := range []string{".count", ".mean", ".p95", ".max"} {
		se := s.SeriesByName("wait_ns"+field, Labels{VM: "fg"})
		if se == nil || len(se.Points) != 1 {
			t.Fatalf("missing derived series %q", field)
		}
	}
	if v := s.SeriesByName("wait_ns.p95", Labels{VM: "fg"}).Points[0].V; v != 95 {
		t.Fatalf("p95 snapshot = %v", v)
	}
}

func TestNewSamplerPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil registry": func() { NewSampler(nil, sim.Second) },
		"zero cadence": func() { NewSampler(NewRegistry(), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewSampler should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWritePrometheusFormatAndDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("sa_sent_total", Labels{Sub: "hv", VM: "fg"}).Add(7)
		r.Gauge("rt_avg", Labels{Sub: "guest"}).Set(0.5)
		h := r.Histogram("ack_ns", Labels{VM: "fg"})
		for i := 1; i <= 10; i++ {
			h.Observe(sim.Time(i) * sim.Microsecond)
		}
		return r
	}
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, build()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Prometheus export must be byte-identical across runs")
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE sa_sent_total counter",
		`sa_sent_total{sub="hv",vm="fg"} 7`,
		"# TYPE rt_avg gauge",
		`rt_avg{sub="guest"} 0.5`,
		"# TYPE ack_ns summary",
		`ack_ns{vm="fg",quantile="0.95"} 10000`,
		`ack_ns_sum{vm="fg"} 55000`,
		`ack_ns_count{vm="fg"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", Labels{VM: "fg"})
	s := NewSampler(r, sim.Millisecond)
	c.Inc()
	s.Sample()
	c.Inc()
	s.Sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 points:\n%s", len(lines), buf.String())
	}
	if lines[0] != "metric,labels,t_ns,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "x_total,") || !strings.HasSuffix(lines[1], ",1") {
		t.Fatalf("first point = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",2") {
		t.Fatalf("second point = %q", lines[2])
	}
}

func TestHistogramLine(t *testing.T) {
	if got := HistogramLine(nil); got != "n=0" {
		t.Fatalf("nil histogram line = %q", got)
	}
	r := NewRegistry()
	h := r.Histogram("w", Labels{})
	h.Observe(30 * sim.Millisecond)
	line := HistogramLine(h)
	if !strings.Contains(line, "n=1") || !strings.Contains(line, "30.000ms") {
		t.Fatalf("histogram line = %q", line)
	}
}
