package trace

import (
	"math"
	"strconv"

	"repro/internal/sim"
)

// Arg is one typed operand of a deferred-format line — a trace event's
// detail or a decision record's text — kept as a plain value and
// formatted only when the line is read.
type Arg struct {
	str  string
	num  int64
	kind byte // 's' string, 'd' integer, 't' virtual time, 'f' float
	prec byte // digits after the point of a float operand
}

// Str is a string operand.
func Str(s string) Arg { return Arg{str: s, kind: 's'} }

// Int is an integer operand, rendered in decimal.
func Int(n int) Arg { return Arg{num: int64(n), kind: 'd'} }

// Dur is a virtual-time operand, rendered like sim.Time.
func Dur(t sim.Time) Arg { return Arg{num: int64(t), kind: 't'} }

// Float is a float operand rendered with prec digits after the point,
// as by %.<prec>f.
func Float(f float64, prec int) Arg {
	return Arg{num: int64(math.Float64bits(f)), kind: 'f', prec: byte(prec)}
}

// appendText appends the operand's text to dst.
func (a Arg) appendText(dst []byte) []byte {
	switch a.kind {
	case 's':
		return append(dst, a.str...)
	case 'd':
		return strconv.AppendInt(dst, a.num, 10)
	case 't':
		return sim.Time(a.num).Append(dst)
	case 'f':
		return strconv.AppendFloat(dst, math.Float64frombits(uint64(a.num)), 'f', int(a.prec), 64)
	}
	return dst
}

// String returns the operand's text; a string operand returns itself
// without allocating.
func (a Arg) String() string {
	if a.kind == 's' {
		return a.str
	}
	var buf [32]byte
	return string(a.appendText(buf[:0]))
}

// AppendFormat appends format with its verbs replaced by args, in
// order, to dst. A verb is '%' plus a letter (%s, %d, %v, %f), with an
// optional ".N" precision before the letter; each operand renders in
// its own form whatever the letter, and a precision overrides a float
// operand's. "%%" is a literal percent. With no operands the format is
// the literal text, so a detail such as "100% literal" survives. For
// the operands this package builds the output equals fmt.Sprintf over
// the same values, without boxing any of them.
func AppendFormat(dst []byte, format string, args []Arg) []byte {
	if len(args) == 0 {
		return append(dst, format...)
	}
	next := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 == len(format) {
			dst = append(dst, c)
			continue
		}
		i++
		prec := -1
		if format[i] == '.' {
			prec = 0
			for i+1 < len(format) && format[i+1] >= '0' && format[i+1] <= '9' {
				i++
				prec = prec*10 + int(format[i]-'0')
			}
			if i+1 < len(format) {
				i++
			}
		}
		if format[i] == '%' {
			dst = append(dst, '%')
			continue
		}
		if next == len(args) {
			dst = append(dst, "%!"...)
			dst = append(dst, format[i])
			dst = append(dst, "(MISSING)"...)
			continue
		}
		a := args[next]
		next++
		if prec >= 0 && a.kind == 'f' {
			a.prec = byte(prec)
		}
		dst = a.appendText(dst)
	}
	return dst
}
