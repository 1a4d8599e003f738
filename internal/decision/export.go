package decision

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/trace"
)

// Exports. The JSON bundle is the machine-readable artifact CI
// uploads; the Chrome-trace export renders each decision as a Perfetto
// instant event on a per-chooser track through trace.ChromeTrace, the
// writer span.WriteChromeSpans also uses, so timestamps share one
// timebase — load both files into one Perfetto session and the
// decision that routed a request lines up under the request's span.

// jsonCandidate mirrors Candidate with stable JSON keys.
type jsonCandidate struct {
	Name   string  `json:"name"`
	Score  float64 `json:"score"`
	Reason string  `json:"reason,omitempty"`
}

// jsonRecord is one exported decision.
type jsonRecord struct {
	T          string            `json:"t"`  // human time, e.g. "6.000s"
	Ns         int64             `json:"ns"` // virtual nanoseconds (span correlation key)
	Shard      int               `json:"shard"`
	Seq        uint64            `json:"seq"`
	Kind       string            `json:"kind"`
	Chooser    string            `json:"chooser"`
	Subject    string            `json:"subject,omitempty"`
	Winner     string            `json:"winner,omitempty"`
	Detail     string            `json:"detail,omitempty"`
	Candidates []jsonCandidate   `json:"candidates,omitempty"`
	Inputs     map[string]string `json:"inputs,omitempty"`
}

// jsonBundle is the export envelope.
type jsonBundle struct {
	Count   int          `json:"count"`
	Dropped uint64       `json:"dropped"`
	Records []jsonRecord `json:"records"`
}

// WriteJSON writes the records as one indented JSON bundle.
func WriteJSON(w io.Writer, recs []Record, dropped uint64) error {
	bundle := jsonBundle{Count: len(recs), Dropped: dropped, Records: []jsonRecord{}}
	for i := range recs {
		r := &recs[i]
		jr := jsonRecord{
			T:       r.At.String(),
			Ns:      int64(r.At),
			Shard:   r.Shard,
			Seq:     r.Seq,
			Kind:    r.Kind.String(),
			Chooser: r.Chooser,
			Subject: r.Subject,
			Winner:  r.Winner,
			Detail:  r.Detail.String(),
		}
		for _, c := range r.Candidates {
			jr.Candidates = append(jr.Candidates, jsonCandidate{Name: c.Name, Score: c.Score, Reason: c.Reason.String()})
		}
		if len(r.Inputs) > 0 {
			jr.Inputs = make(map[string]string, len(r.Inputs))
			for _, kv := range r.Inputs {
				jr.Inputs[kv.Key] = kv.Val.String()
			}
		}
		bundle.Records = append(bundle.Records, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bundle)
}

// WriteChromeTrace renders the records as Perfetto instant events: one
// process ("decisions"), one thread track per chooser in first-
// appearance order, each decision a thread-scoped instant at its
// virtual time carrying kind/subject/winner/detail args.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	const pid = 1
	var out trace.ChromeTrace
	out.Process(pid, "decisions")
	tracks := map[string]trace.Track{}
	for i := range recs {
		r := &recs[i]
		t, ok := tracks[r.Chooser]
		if !ok {
			t = trace.Track{Pid: pid, Tid: len(tracks) + 1}
			tracks[r.Chooser] = t
			out.Thread(t, r.Chooser)
		}
		args := map[string]string{
			"subject": r.Subject,
			"winner":  r.Winner,
			"detail":  r.Detail.String(),
			"vtime":   time.Duration(r.At).String(),
		}
		if m, ok := r.Margin(); ok {
			args["margin"] = fmt.Sprintf("%.3f", m)
		}
		out.Instant(t, r.At, fmt.Sprintf("%s %s", r.Kind, r.Subject), r.Kind.String(), args)
	}
	return out.Write(w)
}
