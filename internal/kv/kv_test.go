package kv

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// rec carries one value of every binding kind.
type rec struct {
	D    sim.Time
	F    float64
	I, P int
	B    bool
	S, T string
	X    uint64
}

// sparseRec binds every kind, with a hex Func; fullRec binds the kinds
// whose zero value renders non-empty, as a Full table requires.
var (
	sparseRec = Sparse(
		Dur("d", func(r *rec) *sim.Time { return &r.D }),
		Float("f", func(r *rec) *float64 { return &r.F }),
		Int("i", func(r *rec) *int { return &r.I }),
		PosInt("p", func(r *rec) *int { return &r.P }),
		OnOff("b", func(r *rec) *bool { return &r.B }),
		Str("s", func(r *rec) *string { return &r.S }),
		Text("t", func(r *rec) *string { return &r.T }),
		Func("x", func(r *rec, val string) (err error) {
			r.X, err = strconv.ParseUint(val, 16, 64)
			return err
		}, func(r *rec) string {
			if r.X == 0 {
				return ""
			}
			return strconv.FormatUint(r.X, 16)
		}),
	)
	fullRec = Full(
		Dur("d", func(r *rec) *sim.Time { return &r.D }),
		Float("f", func(r *rec) *float64 { return &r.F }),
		Int("i", func(r *rec) *int { return &r.I }),
		OnOff("b", func(r *rec) *bool { return &r.B }),
	)
)

func TestParseBindsEveryKind(t *testing.T) {
	var r rec
	if err := sparseRec.Parse(&r, " D = 1500us , f=0.25,i=-3, p=2 ,b=YES,s=Mixed Case,t=Mixed Case,x=ff"); err != nil {
		t.Fatal(err)
	}
	want := rec{D: 1500 * sim.Microsecond, F: 0.25, I: -3, P: 2, B: true, S: "mixed case", T: "Mixed Case", X: 255}
	if r != want {
		t.Fatalf("parsed %+v, want %+v", r, want)
	}
	if got := sparseRec.Format(&r); got != "d=1.5ms,f=0.25,i=-3,p=2,b=on,s=mixed case,t=Mixed Case,x=ff" {
		t.Fatalf("Format = %q", got)
	}
}

func TestFieldPolicy(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{"", "empty field"},
		{"d=1s,", "empty field"},
		{"d=1s,,f=1", "empty field"},
		{" , d=1s", "empty field"},
		{"d", "not key=value"},
		{"d=", "no value"},
		{"d= ", "no value"},
		{"d=1s,D=2s", "duplicate field"},
		{"zz=1", "unknown field"},
		{"=1", "unknown field"},
		{"d=soon", "d: time"},
		{"f=NaN", "not a finite number"},
		{"f=+Inf", "not a finite number"},
		{"f=1e400", "f: strconv"},
		{"i=1.5", "i: strconv"},
		{"p=0", "must be positive"},
		{"p=-1", "must be positive"},
		{"b=maybe", "want on/off"},
		{"x=zz", "x: strconv"},
	} {
		var r rec
		err := sparseRec.Parse(&r, tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tc.body, err, tc.want)
		}
	}
}

func TestSetSharesSeenAcrossCalls(t *testing.T) {
	var r rec
	var seen Seen
	if err := sparseRec.Set(&r, "i=1", &seen); err != nil {
		t.Fatal(err)
	}
	if err := sparseRec.Set(&r, "I=2", &seen); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("second i= accepted: %v", err)
	}
}

func TestRenderModes(t *testing.T) {
	var r rec
	if got := sparseRec.Format(&r); got != "" {
		t.Fatalf("sparse zero render = %q, want empty", got)
	}
	if got := fullRec.Format(&r); got != "d=0s,f=0,i=0,b=off" {
		t.Fatalf("full zero render = %q", got)
	}
	r.I = 7
	if got := sparseRec.Append([]string{"head"}, &r); !reflect.DeepEqual(got, []string{"head", "i=7"}) {
		t.Fatalf("Append = %q", got)
	}
}

func TestTableDeclarationPanics(t *testing.T) {
	for name, decl := range map[string]func(){
		"duplicate": func() {
			Sparse(Int("a", func(r *rec) *int { return &r.I }), Int("a", func(r *rec) *int { return &r.P }))
		},
		"uppercase": func() { Sparse(Int("A", func(r *rec) *int { return &r.I })) },
		"empty":     func() { Full(Int("", func(r *rec) *int { return &r.I })) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s key: declaration did not panic", name)
				}
			}()
			decl()
		}()
	}
}

func TestSections(t *testing.T) {
	secs, err := Sections("# header\n a : x=1 ; B:y=2 # tail\n\n;;c:")
	if err != nil {
		t.Fatal(err)
	}
	want := []Section{{"a", " x=1 "}, {"B", "y=2 "}, {"c", ""}}
	if !reflect.DeepEqual(secs, want) {
		t.Fatalf("Sections = %q, want %q", secs, want)
	}
	if secs, err := Sections(" ; \n # only comments"); err != nil || secs != nil {
		t.Fatalf("blank text = %q, %v", secs, err)
	}
	if _, err := Sections("a:x=1; nohead"); err == nil || !strings.Contains(err.Error(), "not name:key=value") {
		t.Fatalf("headless section: %v", err)
	}
}

func TestList(t *testing.T) {
	got, err := List(" 3, 1 ,2", strconv.Atoi)
	if err != nil || !reflect.DeepEqual(got, []int{3, 1, 2}) {
		t.Fatalf("List = %v, %v", got, err)
	}
	for _, bad := range []string{"", " ", "1,", ",1", "1,,2", "1,x"} {
		if _, err := List(bad, strconv.Atoi); err == nil {
			t.Errorf("List(%q) accepted", bad)
		}
	}
}
