package obs

import (
	"bytes"
	"strings"
	"testing"
)

// orderLabels registers in an order that differs from the export order
// both by declaration and by field order: exports sort by the rendered
// label string, so p10 precedes p2 and {sub=...} precedes {vm=...}.
var orderLabels = []Labels{
	{Sub: "hv", CPU: "p2"},
	{VM: "a"},
	{},
	{Sub: "hv", CPU: "p10"},
	{Sub: "b"},
}

var orderWant = []string{
	`m_total`,
	`m_total{sub="b"}`,
	`m_total{sub="hv",cpu="p10"}`,
	`m_total{sub="hv",cpu="p2"}`,
	`m_total{vm="a"}`,
}

func TestExportOrderFollowsLabelString(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, 1)
	for _, l := range orderLabels {
		r.Counter("m_total", l).Inc()
	}
	s.Sample()

	var visited []string
	r.Visit(func(name string, l Labels, _ *Counter, _ *Gauge, _ *Histogram, _ *Sketch) {
		visited = append(visited, name+l.String())
	})
	if got, want := strings.Join(visited, "|"), strings.Join(orderWant, "|"); got != want {
		t.Fatalf("Visit order\n got %s\nwant %s", got, want)
	}

	var prom bytes.Buffer
	if err := WritePrometheus(&prom, r); err != nil {
		t.Fatal(err)
	}
	var promLines []string
	for _, line := range strings.Split(strings.TrimSpace(prom.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			promLines = append(promLines, strings.TrimSuffix(line, " 1"))
		}
	}
	if got, want := strings.Join(promLines, "|"), strings.Join(orderWant, "|"); got != want {
		t.Fatalf("Prometheus order\n got %s\nwant %s", got, want)
	}

	var csv bytes.Buffer
	if err := WriteCSV(&csv, s); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")[1:]
	for i, row := range rows {
		rows[i] = strings.SplitN(row, `,`, 2)[1]
	}
	var wantRows []string
	for _, w := range orderWant {
		quoted := strings.TrimPrefix(w, "m_total")
		if quoted != "" {
			quoted = `"` + strings.ReplaceAll(quoted, `"`, `""`) + `"`
		}
		wantRows = append(wantRows, quoted+",0,1")
	}
	if got, want := strings.Join(rows, "|"), strings.Join(wantRows, "|"); got != want {
		t.Fatalf("CSV order\n got %s\nwant %s", got, want)
	}
}

func TestKindMismatchPanicsWithLabels(t *testing.T) {
	r := NewRegistry()
	l := Labels{Sub: "hv", VM: "fg"}
	r.Histogram("lat_ns", l)
	r.Counter("lat_ns", Labels{Sub: "hv", VM: "bg"}) // other labels: a different metric
	defer func() {
		msg, _ := recover().(string)
		want := `obs: metric lat_ns{sub="hv",vm="fg"} registered as histogram and counter`
		if msg != want {
			t.Fatalf("panic = %q, want %q", msg, want)
		}
	}()
	r.Counter("lat_ns", l)
}

// TestFindZeroAllocs pins the per-epoch lookups the cluster's signal
// and watch paths make: finding a metric formats no key.
func TestFindZeroAllocs(t *testing.T) {
	r := NewRegistry()
	l := Labels{Sub: "hv", VM: "fg", CPU: "fg/v0"}
	c := r.Counter("sa_sent_total", l)
	h := r.Histogram("ack_ns", l)
	allocs := testing.AllocsPerRun(100, func() {
		if r.FindCounter("sa_sent_total", l) != c || r.FindHistogram("ack_ns", l) != h {
			t.Fatal("Find* returned the wrong metric")
		}
	})
	if allocs != 0 {
		t.Fatalf("FindCounter+FindHistogram allocate %v allocs/op, want 0", allocs)
	}
}
