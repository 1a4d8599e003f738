package kv

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// section is one parsed section of a fuzzed spec: "s:" sections use
// the sparse table, "f:" sections the full one. As in ParsePlan, a
// sparse section whose fields are all zero renders as "none".
type section struct {
	name string
	v    rec
}

func parseSpec(text string) ([]section, error) {
	secs, err := Sections(text)
	if err != nil {
		return nil, err
	}
	out := make([]section, len(secs))
	for i, sec := range secs {
		out[i].name = strings.ToLower(sec.Name)
		table := sparseRec
		switch out[i].name {
		case "s":
			if strings.TrimSpace(sec.Body) == "none" {
				continue
			}
		case "f":
			table = fullRec
		default:
			return nil, errUnknownSection
		}
		if err := table.Parse(&out[i].v, sec.Body); err != nil {
			return nil, err
		}
	}
	return out, nil
}

var errUnknownSection = errors.New("unknown section")

func renderSpec(secs []section) string {
	parts := make([]string, len(secs))
	for i, s := range secs {
		table := sparseRec
		if s.name == "f" {
			table = fullRec
		}
		body := table.Format(&s.v)
		if body == "" {
			body = "none"
		}
		parts[i] = s.name + ":" + body
	}
	return strings.Join(parts, "; ")
}

// FuzzParse asserts that the lexer never panics, that any spec it
// accepts re-renders and re-parses equal under both render modes, and
// that any list it accepts re-joins and re-splits equal.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"s:d=1ms,f=0.5,i=-2,p=3,b=on,s=ABC,t=Ab c,x=1f",
		"f:d=0s,f=0,i=0,b=off",
		"# c\nS: D = 2s ; f:b=yes\n\n;",
		"s:p=0",
		"s:f=NaN",
		"s:d=1s,d=2s",
		"s:t=a=b,s=x#y",
		"s:,",
		"f:zz=1",
		"q:x=1",
		"nohead",
		"a,b, c",
		"s:d=-2562047h47m16.854775808s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if secs, err := parseSpec(text); err == nil {
			canon := renderSpec(secs)
			back, err := parseSpec(canon)
			if err != nil {
				t.Fatalf("%q -> %q does not re-parse: %v", text, canon, err)
			}
			if !reflect.DeepEqual(back, secs) {
				t.Fatalf("round trip of %q via %q: %+v != %+v", text, canon, back, secs)
			}
		}
		ident := func(s string) (string, error) { return s, nil }
		if elems, err := List(text, ident); err == nil {
			back, err := List(strings.Join(elems, ","), ident)
			if err != nil || !reflect.DeepEqual(back, elems) {
				t.Fatalf("list %q: %q -> %q, %v", text, elems, back, err)
			}
		}
	})
}
