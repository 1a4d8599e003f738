package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile layer attribution with the standard library only: a
// minimal decoder for the gzipped profile.proto that runtime/pprof
// writes, and a rule that charges each sample to one layer.

// layers are the repo packages a sample can be charged to, named after
// repro/internal/<pkg>.
var layers = []string{
	"sim", "hypervisor", "guest", "guestsync", "workload", "core", "cluster", "topology",
	"watch", "span", "decision", "trace", "obs", "metrics", "invariant", "fault", "experiments",
}

// Buckets for samples with no repo frame on their stack.
const (
	bucketGC      = "gc"      // collector goroutines
	bucketRuntime = "runtime" // scheduler, syscalls, everything else
	bucketBench   = "bench"   // the benchmark's own code
)

// attributionKeys lists every layer and bucket in report order.
func attributionKeys() []string {
	return append(append([]string(nil), layers...), bucketGC, bucketRuntime, bucketBench)
}

const repoPrefix = "repro/internal/"

// attribute charges one stack (innermost frame first) to a layer: the
// innermost repro/internal/<pkg> frame wins; otherwise the sample goes
// to gc, bench or runtime.
func attribute(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			for _, l := range layers {
				if l == rest {
					return l
				}
			}
			return bucketRuntime
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return bucketGC
		}
	}
	for _, fn := range stack {
		// The command names its frames main.*; its test binary uses
		// the import path.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
			return bucketBench
		}
	}
	return bucketRuntime
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// mallocOnStack reports whether any frame is in the allocator.
func mallocOnStack(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return true
		}
	}
	return false
}

// layerProfile accumulates CPU time per layer.
type layerProfile struct {
	cpuNs    map[string]int64
	mallocNs int64
	totalNs  int64
}

func newLayerProfile() *layerProfile { return &layerProfile{cpuNs: map[string]int64{}} }

func (lp *layerProfile) add(stack []string, ns int64) {
	lp.cpuNs[attribute(stack)] += ns
	if mallocOnStack(stack) {
		lp.mallocNs += ns
	}
	lp.totalNs += ns
}

// shares returns each layer's share of the sampled CPU time; they sum
// to 1 when any sample was taken.
func (lp *layerProfile) shares() map[string]float64 {
	out := map[string]float64{}
	for _, k := range attributionKeys() {
		if lp.totalNs > 0 {
			out[k] = float64(lp.cpuNs[k]) / float64(lp.totalNs)
		} else {
			out[k] = 0
		}
	}
	return out
}

// addPprof decodes a gzipped CPU profile and adds its samples.
func (lp *layerProfile) addPprof(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	// Use the cpu/nanoseconds value; fall back to samples × period.
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			vi = i
		}
	}
	for _, s := range p.samples {
		var ns int64
		switch {
		case vi >= 0 && vi < len(s.values):
			ns = s.values[vi]
		case len(s.values) > 0:
			ns = s.values[0] * p.period
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.str(p.funcNames[fid]))
			}
		}
		lp.add(stack, ns)
	}
	return nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []protoSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> name string index
	strings     []string
	period      int64
}

type protoSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("profile: malformed protobuf")

// protoField is one decoded field: a varint or a length-delimited
// payload.
type protoField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

func readVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// fields splits a message into its fields.
func fields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			return nil, errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = readVarint(b); n == 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// uints appends a repeated integer field that may be packed or not.
func uints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := readVarint(b)
		if n == 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var typ int64
			for _, g := range sub {
				if g.num == 1 {
					typ = int64(g.v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s protoSample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					if s.locs, err = uints(s.locs, g); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uints(vals, g); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line: function_id, line
					ln, err := fields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range ln {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		case 12: // period
			p.period = int64(f.v)
		}
	}
	return p, nil
}
