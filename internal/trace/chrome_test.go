package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func TestWriteChromeTrace(t *testing.T) {
	log := NewLog(0)
	log.Record(1*sim.Millisecond, KindVCPUState, "fg/v0", "blocked -> runnable")
	log.Record(2*sim.Millisecond, KindVCPUState, "fg/v0", "runnable -> running")
	log.Record(3*sim.Millisecond, KindSA, "fg/v0", "sent")
	log.Record(5*sim.Millisecond, KindVCPUState, "fg/v0", "running -> blocked")
	log.Record(20*sim.Millisecond, KindNote, "outside", "beyond window")

	var buf bytes.Buffer
	if err := log.WriteChromeTrace(&buf, 0, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  int      `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var begins, ends, instants, metas int
	for _, e := range out.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Ts == nil || e.Pid == 0 || e.Tid == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		if e.Name == "outside" {
			t.Fatal("event beyond the window leaked into the export")
		}
		switch e.Ph {
		case "B":
			begins++
		case "E":
			ends++
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	// runnable B/E + running B/E from the three transitions.
	if begins != 2 || ends != 2 {
		t.Fatalf("B/E = %d/%d, want 2/2", begins, ends)
	}
	if instants != 1 {
		t.Fatalf("instants = %d, want 1 (the SA event)", instants)
	}
	if metas < 2 {
		t.Fatalf("metadata events = %d, want process_name + thread_name", metas)
	}
}

func TestWriteChromeTraceClosesOpenSlice(t *testing.T) {
	log := NewLog(0)
	log.Record(1*sim.Millisecond, KindVCPUState, "fg/v0", "runnable -> running")
	var buf bytes.Buffer
	if err := log.WriteChromeTrace(&buf, 0, 4*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var sawEnd bool
	for _, e := range out.TraceEvents {
		if e.Ph == "E" {
			sawEnd = true
			if e.Ts != 4000 { // 4 ms window edge, in µs
				t.Fatalf("close ts = %v µs, want 4000", e.Ts)
			}
		}
	}
	if !sawEnd {
		t.Fatal("slice still open at window end must be closed")
	}
}
