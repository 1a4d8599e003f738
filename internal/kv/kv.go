// Package kv is the one lexer under every text spec of the simulator:
// fault plans, attacker specs, SLO alert rules, cluster-load specs,
// decision queries and kind lists. It owns the syntax and a single
// field policy; a grammar declares only its keys, as a Table of typed
// field bindings that drives both its parser and its canonical render.
//
// Syntax:
//
//   - a body is a comma-separated list of key=value fields;
//   - a spec of several sections separates them with ';' or newlines,
//     '#' starts a comment running to the end of its line, and each
//     section is "name:body";
//   - a list is comma-separated elements.
//
// Field policy, the same in every grammar: keys and values are trimmed
// and keys lowercased; an empty field, a field without '=', an empty
// value, a duplicate key and an unknown key are errors, as is an empty
// list element. Blank sections and blank lines are skipped.
package kv

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Field binds one key of a Table to one value of a T.
type Field[T any] struct {
	key string
	set func(v *T, val string) error
	// format renders the value and reports whether it is the zero
	// value, which a sparse table leaves out.
	format func(v *T) (s string, zero bool)
}

func bind[T any, V comparable](key string, at func(*T) *V, parse func(string) (V, error), format func(V) string) Field[T] {
	return Field[T]{
		key: key,
		set: func(v *T, val string) error {
			x, err := parse(val)
			*at(v) = x
			return err
		},
		format: func(v *T) (string, bool) {
			var zero V
			x := *at(v)
			return format(x), x == zero
		},
	}
}

// Dur binds a Go-syntax duration ("500us", "2s").
func Dur[T any](key string, at func(*T) *sim.Time) Field[T] {
	return bind(key, at, parseDur, func(d sim.Time) string { return d.Std().String() })
}

// Float binds a finite float.
func Float[T any](key string, at func(*T) *float64) Field[T] {
	return bind(key, at, parseFloat, func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) })
}

// Int binds an int.
func Int[T any](key string, at func(*T) *int) Field[T] {
	return bind(key, at, strconv.Atoi, strconv.Itoa)
}

// PosInt binds an int that must be positive when given, so an explicit
// 0 is an error rather than a request for the grammar's default.
func PosInt[T any](key string, at func(*T) *int) Field[T] {
	return bind(key, at, parsePosInt, strconv.Itoa)
}

// OnOff binds a bool written on/off (true/false, yes/no and 1/0 are
// accepted too).
func OnOff[T any](key string, at func(*T) *bool) Field[T] {
	return bind(key, at, parseOnOff, func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	})
}

// Str binds a string stored lowercased.
func Str[T any](key string, at func(*T) *string) Field[T] {
	return bind(key, at, func(s string) (string, error) { return strings.ToLower(s), nil }, identity)
}

// Text binds a string stored verbatim.
func Text[T any](key string, at func(*T) *string) Field[T] {
	return bind(key, at, func(s string) (string, error) { return s, nil }, identity)
}

// Func binds a key to custom set and format functions; format returns
// "" for the zero value.
func Func[T any](key string, set func(v *T, val string) error, format func(v *T) string) Field[T] {
	return Field[T]{key: key, set: set, format: func(v *T) (string, bool) {
		s := format(v)
		return s, s == ""
	}}
}

func identity(s string) string { return s }

func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	return sim.Time(d), err
}

func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%q is not a finite number", s)
	}
	return f, err
}

func parsePosInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n <= 0 {
		err = fmt.Errorf("must be positive, got %d", n)
	}
	return n, err
}

func parseOnOff(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "on", "true", "yes", "1":
		return true, nil
	case "off", "false", "no", "0":
		return false, nil
	}
	return false, fmt.Errorf("want on/off, got %q", s)
}

// Table is one grammar's field set. Whether its render omits zero
// fields is fixed when the grammar declares it (Sparse or Full).
type Table[T any] struct {
	fields []Field[T]
	sparse bool
}

// Sparse declares a table whose render leaves out zero-valued fields.
func Sparse[T any](fields ...Field[T]) *Table[T] { return newTable(true, fields) }

// Full declares a table whose render lists every field. The render
// parses back only if every field renders non-empty, so a grammar
// fills its PosInt and string defaults before rendering.
func Full[T any](fields ...Field[T]) *Table[T] { return newTable(false, fields) }

func newTable[T any](sparse bool, fields []Field[T]) *Table[T] {
	if len(fields) > 64 {
		panic("kv: more than 64 fields in one table")
	}
	for i, f := range fields {
		if f.key != strings.ToLower(strings.TrimSpace(f.key)) || f.key == "" {
			panic(fmt.Sprintf("kv: key %q is not a trimmed lowercase name", f.key))
		}
		for _, g := range fields[:i] {
			if g.key == f.key {
				panic(fmt.Sprintf("kv: duplicate key %q", f.key))
			}
		}
	}
	return &Table[T]{fields: fields, sparse: sparse}
}

// Seen records which keys of a table a spec has set, for the duplicate
// check across Set calls.
type Seen uint64

// Parse sets v's fields from body, a comma-separated key=value list.
func (t *Table[T]) Parse(v *T, body string) error {
	var seen Seen
	for {
		field, rest, more := strings.Cut(body, ",")
		if err := t.Set(v, field, &seen); err != nil {
			return err
		}
		if !more {
			return nil
		}
		body = rest
	}
}

// Set parses one key=value field into v, under the field policy.
func (t *Table[T]) Set(v *T, field string, seen *Seen) error {
	field = strings.TrimSpace(field)
	if field == "" {
		return errors.New("empty field")
	}
	key, val, ok := strings.Cut(field, "=")
	if !ok {
		return fmt.Errorf("field %q is not key=value", field)
	}
	key, val = strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)
	for i := range t.fields {
		f := &t.fields[i]
		if f.key != key {
			continue
		}
		if *seen&(1<<i) != 0 {
			return fmt.Errorf("duplicate field %q", key)
		}
		*seen |= 1 << i
		if val == "" {
			return fmt.Errorf("field %q has no value", key)
		}
		if err := f.set(v, val); err != nil {
			return fmt.Errorf("%s: %v", key, err)
		}
		return nil
	}
	return fmt.Errorf("unknown field %q", key)
}

// Append appends v's canonical "key=value" fields to dst, in table
// order.
func (t *Table[T]) Append(dst []string, v *T) []string {
	for i := range t.fields {
		f := &t.fields[i]
		s, zero := f.format(v)
		if t.sparse && zero {
			continue
		}
		dst = append(dst, f.key+"="+s)
	}
	return dst
}

// Format renders v as the canonical body Parse reads back.
func (t *Table[T]) Format(v *T) string { return strings.Join(t.Append(nil, v), ",") }

// Section is one "name:body" section of a spec.
type Section struct{ Name, Body string }

// Head splits s at its first ':' into a section with a trimmed name.
func Head(s string) (Section, error) {
	name, body, ok := strings.Cut(s, ":")
	if !ok {
		return Section{}, fmt.Errorf("section %q is not name:key=value,...", strings.TrimSpace(s))
	}
	return Section{Name: strings.TrimSpace(name), Body: body}, nil
}

// Sections splits text into its sections: ';' and newlines separate
// them, '#' comments out the rest of its line, and blank sections are
// skipped.
func Sections(text string) ([]Section, error) {
	var out []Section
	for _, line := range strings.Split(text, "\n") {
		line, _, _ = strings.Cut(line, "#")
		for _, s := range strings.Split(line, ";") {
			if strings.TrimSpace(s) == "" {
				continue
			}
			sec, err := Head(s)
			if err != nil {
				return nil, err
			}
			out = append(out, sec)
		}
	}
	return out, nil
}

// List parses a comma-separated list, passing each trimmed element to
// parse.
func List[E any](s string, parse func(string) (E, error)) ([]E, error) {
	var out []E
	for {
		elem, rest, more := strings.Cut(s, ",")
		elem = strings.TrimSpace(elem)
		if elem == "" {
			return nil, errors.New("empty list element")
		}
		e, err := parse(elem)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !more {
			return out, nil
		}
		s = rest
	}
}
