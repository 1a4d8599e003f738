// Package kvtest pins a spec grammar's behaviour in a golden file: for
// every input, whether the parser accepts it and, if so, the canonical
// render of the parsed value. A parser rewrite is then checked against
// the parser it replaces line by line.
package kvtest

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Corpus returns the string inputs of the committed fuzz corpus of
// target (testdata/fuzz/<target>/*).
func Corpus(t testing.TB, target string) []string {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*")) // errs only on a bad pattern
	var out []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		arg, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\nstring(")
		arg, ok2 := strings.CutSuffix(arg, ")")
		s, qerr := strconv.Unquote(arg)
		if err != nil || !ok || !ok2 || qerr != nil {
			t.Fatalf("%s: not a single-string fuzz corpus entry (%v)", p, err)
		}
		out = append(out, s)
	}
	return out
}

// Golden feeds every input through parse and compares the outcomes,
// one sorted, deduplicated line per input, against the golden file at
// path: the quoted input, then "reject" or the quoted render parse
// returned. With update set it rewrites the file instead.
func Golden(t *testing.T, path string, update bool, parse func(string) (string, error), inputs ...[]string) {
	t.Helper()
	lines := map[string]bool{}
	for _, list := range inputs {
		for _, in := range list {
			out := "reject"
			if s, err := parse(in); err == nil {
				out = strconv.Quote(s)
			}
			lines[strconv.Quote(in)+" -> "+out] = true
		}
	}
	sorted := make([]string, 0, len(lines))
	for l := range lines {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, l := range strings.Split(string(want), "\n") {
		delete(lines, l)
	}
	for l := range lines {
		t.Errorf("not in %s: %s", path, l)
	}
	if got != string(want) {
		t.Fatalf("%s differs (run with -update to rewrite it)", path)
	}
}
