// Package trace records scheduling events from the hypervisor and
// guest kernels into a bounded in-memory log, for debugging scenarios
// and for rendering execution timelines (cmd/irstrace). Tracing is
// optional: components emit events only when a *Log is attached.
package trace

import (
	"fmt"
	"io"
	"slices"
	"strings"

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
// An empty string means no filter and returns nil. Unknown names are an
// error (naming the offender and the valid set) instead of silently
// matching nothing.
func ParseKinds(arg string) (map[Kind]bool, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil
	}
	m := map[Kind]bool{}
	for _, part := range strings.Split(arg, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		k, ok := kindNames[name]
		if !ok {
			return nil, fmt.Errorf("trace: unknown event kind %q (valid: %s)",
				name, strings.Join(KindNames(), ", "))
		}
		m[k] = true
	}
	if len(m) == 0 {
		return nil, nil
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

// Arg is one typed operand of a Recordf event, kept as a plain value
// and formatted only when the event's Detail is read.
type Arg struct {
	str  string
	num  int64
	kind byte // 's' string, 'd' integer, 't' virtual time
}

// Str is a string operand (%s).
func Str(s string) Arg { return Arg{str: s, kind: 's'} }

// Int is an integer operand (%d).
func Int(n int) Arg { return Arg{num: int64(n), kind: 'd'} }

// Dur is a virtual-time operand, formatted like sim.Time (%s).
func Dur(t sim.Time) Arg { return Arg{num: int64(t), kind: 't'} }

func (a Arg) value() any {
	switch a.kind {
	case 's':
		return a.str
	case 't':
		return sim.Time(a.num)
	}
	return a.num
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
	switch r.nargs {
	case 1:
		detail = fmt.Sprintf(r.format, r.args[0].value())
	case 2:
		detail = fmt.Sprintf(r.format, r.args[0].value(), r.args[1].value())
	}
	return Event{At: r.at, Kind: r.kind, Subject: r.subject, Detail: detail}
}

// Log is a bounded ring of events. NewLog(0) is unbounded.
type Log struct {
	limit   int
	buf     []record // grows to limit, then wraps with the oldest at head
	head    int
	dropped uint64
}

// NewLog creates a log keeping at most limit events (0 = unbounded).
func NewLog(limit int) *Log {
	return &Log{limit: limit}
}

// add appends r, overwriting the oldest event once the ring is full.
// The ring doubles up to its limit on demand, so a quiet log stays
// small and a busy one never holds more than limit records.
func (l *Log) add(r record) {
	if l.limit <= 0 || len(l.buf) < l.limit {
		if len(l.buf) == cap(l.buf) && l.limit > 0 {
			l.buf = slices.Grow(l.buf, min(max(2*len(l.buf), 64), l.limit)-len(l.buf))
		}
		l.buf = append(l.buf, r)
		return
	}
	l.buf[l.head] = r
	if l.head++; l.head == len(l.buf) {
		l.head = 0
	}
	l.dropped++
}

// Record appends an event with a literal detail, evicting the oldest
// past the limit.
func (l *Log) Record(at sim.Time, kind Kind, subject, detail string) {
	l.add(record{at: at, kind: kind, subject: subject, format: detail})
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
	l.add(r)
}

// each calls fn on every retained record, oldest first.
func (l *Log) each(fn func(r *record)) {
	for i := range l.buf {
		fn(&l.buf[(l.head+i)%len(l.buf)])
	}
}

// Events returns the retained events in order, formatting each detail.
// The slice is the caller's: later recording cannot change it.
func (l *Log) Events() []Event {
	out := make([]Event, 0, len(l.buf))
	l.each(func(r *record) { out = append(out, r.event()) })
	return out
}

// Dropped reports how many events were evicted.
func (l *Log) Dropped() uint64 { return l.dropped }

// Len returns the number of retained events.
func (l *Log) Len() int { return len(l.buf) }

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
	if l.dropped > 0 {
		_, err := fmt.Fprintf(w, "(%d earlier events dropped)\n", l.dropped)
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
