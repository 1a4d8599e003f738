package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
)

// refs.txt holds, for the seeds the benchmark ships, the digest of
// every simulated statistic of one pass: "<ref> <seed> <hex digest>"
// per line. Regenerate it with `go test -run TestReferenceDigests
// -update` after a change that is meant to alter the simulated model.
//
//go:embed refs.txt
var refsText string

// parseRefs reads the reference table.
func parseRefs(text string) (map[string]map[uint64]uint64, error) {
	out := map[string]map[uint64]uint64{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("refs.txt:%d: want 3 fields", n+1)
		}
		seed, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("refs.txt:%d: %w", n+1, err)
		}
		d, err := strconv.ParseUint(f[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("refs.txt:%d: %w", n+1, err)
		}
		if out[f[0]] == nil {
			out[f[0]] = map[uint64]uint64{}
		}
		out[f[0]][seed] = d
	}
	return out, nil
}
