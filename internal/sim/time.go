// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event queue, cancellable timers, and seeded random
// number streams. All higher layers (hypervisor, guest OS, workloads)
// are driven by this kernel, so a given seed reproduces a run exactly.
package sim

import (
	"strconv"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a standard library duration to virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Std converts a virtual time span back to a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	var buf [24]byte
	return string(t.Append(buf[:0]))
}

// Append appends t's String form to dst: three decimals in the largest
// unit it reaches (s, ms, µs), or whole nanoseconds below a microsecond.
func (t Time) Append(dst []byte) []byte {
	switch {
	case t >= Second:
		return append(strconv.AppendFloat(dst, t.Seconds(), 'f', 3, 64), 's')
	case t >= Millisecond:
		return append(strconv.AppendFloat(dst, t.Milliseconds(), 'f', 3, 64), "ms"...)
	case t >= Microsecond:
		return append(strconv.AppendFloat(dst, t.Microseconds(), 'f', 3, 64), "µs"...)
	default:
		return append(strconv.AppendInt(dst, int64(t), 10), "ns"...)
	}
}
