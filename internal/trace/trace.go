// Package trace records scheduling events from the hypervisor and
// guest kernels into a bounded in-memory log, for debugging scenarios
// and for rendering execution timelines (cmd/irstrace, Perfetto).
// Tracing is optional: components emit events only when a *Log is
// attached. The package also holds the two pieces every observability
// log shares: the bounded Ring and the Chrome Trace Event Format
// writer.
package trace

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/kv"
	"repro/internal/sim"
)

// Kind classifies a trace event.
type Kind int

const (
	// KindVCPUState is a hypervisor vCPU runstate transition.
	KindVCPUState Kind = iota + 1
	// KindSwitch is a pCPU context switch.
	KindSwitch
	// KindSA is a scheduler-activation event (sent/acked/expired).
	KindSA
	// KindTask is a guest task state transition.
	KindTask
	// KindMigrate is a guest task migration.
	KindMigrate
	// KindNote is a free-form annotation.
	KindNote
)

func (k Kind) String() string {
	switch k {
	case KindVCPUState:
		return "vcpu"
	case KindSwitch:
		return "switch"
	case KindSA:
		return "sa"
	case KindTask:
		return "task"
	case KindMigrate:
		return "migrate"
	case KindNote:
		return "note"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kindNames maps the user-facing names accepted by ParseKinds.
var kindNames = map[string]Kind{
	"vcpu":    KindVCPUState,
	"switch":  KindSwitch,
	"sa":      KindSA,
	"task":    KindTask,
	"migrate": KindMigrate,
	"note":    KindNote,
}

// KindNames returns the valid kind names in display order.
func KindNames() []string {
	return []string{"vcpu", "switch", "sa", "task", "migrate", "note"}
}

// ParseKinds parses a comma-separated kind filter such as "sa,migrate".
// An empty string means no filter and returns nil. Unknown names and
// empty elements are an error (naming the offender and the valid set)
// instead of silently matching nothing.
func ParseKinds(arg string) (map[Kind]bool, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil
	}
	kinds, err := kv.List(arg, func(name string) (Kind, error) {
		k, ok := kindNames[name]
		if !ok {
			return 0, fmt.Errorf("unknown event kind %q", name)
		}
		return k, nil
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %v (valid: %s)", err, strings.Join(KindNames(), ", "))
	}
	m := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		m[k] = true
	}
	return m, nil
}

// Event is one recorded occurrence.
type Event struct {
	At      sim.Time
	Kind    Kind
	Subject string // vCPU/task/pCPU name
	Detail  string
}

func (e Event) String() string {
	return fmt.Sprintf("%12s %-8s %-12s %s", e.At, e.Kind, e.Subject, e.Detail)
}

// record is one retained event with its detail still unformatted: a
// constant format and up to two typed operands. With no operands the
// format is the literal detail.
type record struct {
	at      sim.Time
	kind    Kind
	subject string
	format  string
	args    [2]Arg
	nargs   int
}

func (r *record) event() Event {
	detail := r.format
	if r.nargs > 0 {
		var buf [64]byte
		detail = string(AppendFormat(buf[:0], r.format, r.args[:r.nargs]))
	}
	return Event{At: r.at, Kind: r.kind, Subject: r.subject, Detail: detail}
}

// Log is a bounded ring of events. NewLog(0) is unbounded.
type Log struct {
	ring Ring[record]
}

// NewLog creates a log keeping at most limit events (0 = unbounded).
func NewLog(limit int) *Log {
	return &Log{ring: NewRing[record](limit)}
}

// Record appends an event with a literal detail, evicting the oldest
// past the limit.
func (l *Log) Record(at sim.Time, kind Kind, subject, detail string) {
	l.ring.Push(record{at: at, kind: kind, subject: subject, format: detail})
}

// Recordf appends an event whose detail is format applied to args; the
// formatting happens only when the detail is read. With no args the
// format is recorded literally, as by Record. It panics on more than
// two operands.
func (l *Log) Recordf(at sim.Time, kind Kind, subject, format string, args ...Arg) {
	r := record{at: at, kind: kind, subject: subject, format: format, nargs: len(args)}
	if copy(r.args[:], args) < len(args) {
		panic(fmt.Sprintf("trace: Recordf %q with %d operands (max %d)", format, len(args), len(r.args)))
	}
	l.ring.Push(r)
}

// each calls fn on every retained record, oldest first.
func (l *Log) each(fn func(r *record)) {
	for i := 0; i < l.ring.Len(); i++ {
		fn(l.ring.At(i))
	}
}

// Events returns the retained events in order, formatting each detail.
// The slice is the caller's: later recording cannot change it.
func (l *Log) Events() []Event {
	return l.AppendTail(nil, l.ring.Len())
}

// AppendTail appends the newest n retained events (all of them when
// fewer are retained) to dst, oldest first, formatting only those.
func (l *Log) AppendTail(dst []Event, n int) []Event {
	n = min(n, l.ring.Len())
	dst = slices.Grow(dst, n)
	for i := l.ring.Len() - n; i < l.ring.Len(); i++ {
		dst = append(dst, l.ring.At(i).event())
	}
	return dst
}

// Dropped reports how many events were evicted.
func (l *Log) Dropped() uint64 { return l.ring.Dropped() }

// Len returns the number of retained events.
func (l *Log) Len() int { return l.ring.Len() }

// Filter returns events matching kind (and subject, when non-empty).
func (l *Log) Filter(kind Kind, subject string) []Event {
	var out []Event
	l.each(func(r *record) {
		if r.kind == kind && (subject == "" || r.subject == subject) {
			out = append(out, r.event())
		}
	})
	return out
}

// Dump writes the retained events to w, optionally restricted to a
// time window (to == 0 means no upper bound).
func (l *Log) Dump(w io.Writer, from, to sim.Time) error {
	var err error
	l.each(func(r *record) {
		if err != nil || r.at < from || (to > 0 && r.at > to) {
			return
		}
		_, err = fmt.Fprintln(w, r.event())
	})
	if err != nil {
		return err
	}
	if d := l.Dropped(); d > 0 {
		_, err := fmt.Fprintf(w, "(%d earlier events dropped)\n", d)
		return err
	}
	return nil
}

// Summary aggregates event counts by kind.
func (l *Log) Summary() string {
	counts := map[Kind]int{}
	l.each(func(r *record) { counts[r.kind]++ })
	var b strings.Builder
	for k := KindVCPUState; k <= KindNote; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(&b, "%s=%d ", k, counts[k])
		}
	}
	return strings.TrimSpace(b.String())
}
