package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadInputs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown scenario", []string{"-scenario", "nope"}, 2},
		{"bad flag", []string{"-frobnicate"}, 2},
		{"bad rules", []string{"-rules", "page:budget=2"}, 2},
		{"empty rules", []string{"-rules", ";;"}, 2},
		{"dump without incident", []string{"-scenario", "quiet", "-duration", "2s", "-dump", t.TempDir() + "/x"}, 1},
		{"expect-top without alert", []string{"-scenario", "quiet", "-duration", "2s", "-expect-top", "bully"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if got := run(tc.args, &out, &errb); got != tc.code {
				t.Fatalf("exit = %d, want %d (stderr: %s)", got, tc.code, errb.String())
			}
		})
	}
}

func TestBullyScenarioAlertsAndDumps(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "incident")
	var out, errb bytes.Buffer
	code := run([]string{"-expect-top", "bully", "-dump", prefix}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "ALERT page:") {
		t.Fatalf("no live alert line in output:\n%s", text)
	}
	if !strings.Contains(text, "#1 srv0<-bully") {
		t.Fatalf("bully not top-ranked in output:\n%s", text)
	}

	raw, err := os.ReadFile(prefix + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var inc struct {
		Reason   string `json:"reason"`
		Rankings []struct {
			Aggressor string `json:"aggressor"`
		} `json:"rankings"`
		Series []json.RawMessage `json:"series"`
		Spans  []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(raw, &inc); err != nil {
		t.Fatalf("incident bundle is not valid JSON: %v", err)
	}
	if inc.Reason != "slo-alert" || len(inc.Rankings) == 0 || inc.Rankings[0].Aggressor != "bully" {
		t.Fatalf("bundle reason=%q rankings=%+v", inc.Reason, inc.Rankings)
	}
	if len(inc.Series) == 0 || len(inc.Spans) == 0 {
		t.Fatalf("bundle missing telemetry: %d series, %d spans", len(inc.Series), len(inc.Spans))
	}

	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	rawTr, err := os.ReadFile(prefix + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawTr, &tr); err != nil {
		t.Fatalf("trace half is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace half has no events")
	}
}

func TestQuietScenarioStaysSilent(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "quiet"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "ALERT") {
		t.Fatalf("quiet scenario printed an alert:\n%s", out.String())
	}
}

func TestOutputDeterministic(t *testing.T) {
	render := func() string {
		var out, errb bytes.Buffer
		if code := run([]string{"-duration", "6s"}, &out, &errb); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errb.String())
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("same seed diverged:\n%s\n---\n%s", a, b)
	}
}

// TestBullyBundleDigest pins every byte of the bully scenario's first
// incident bundle, host event tails included, by SHA-256: the bundle
// is too large to commit as a golden, and any change to how a host's
// trailing events or the recent spans are captured shifts a digest.
func TestBullyBundleDigest(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "incident")
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "bully", "-dump", prefix}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	want := map[string]string{
		".json":       "2341fdd2118813a5fc4e2b4af8218b0d49ecaba2a8a3a55e0df20a233d166c82",
		".trace.json": "3d33edfbfe5740858392c93903882797157269d337d22a1c535d336ec9a14f4e",
	}
	for suffix, sum := range want {
		raw, err := os.ReadFile(prefix + suffix)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(raw)
		if got := hex.EncodeToString(h[:]); got != sum {
			t.Errorf("incident%s digest %s, want %s", suffix, got, sum)
		}
	}
}
