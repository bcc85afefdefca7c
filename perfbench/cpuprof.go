package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The serve workload's layers run on the daemon's goroutines, where the
// benchmark cannot wrap them in spans, so its traced run folds a CPU profile
// instead: each sample goes to the innermost repository function on its
// stack. foldProfile returns CPU seconds per layer.

const modulePath = "github.com/tipprof/tip"

// layerOf maps a function name to its layer, or "" for code outside the
// repository and the benchmark. The module's root package is the tip layer.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return benchmarkLayer
	}
	if strings.HasPrefix(fn, modulePath+".") {
		return "tip"
	}
	rest, ok := strings.CutPrefix(fn, modulePath+"/")
	if !ok {
		return ""
	}
	if !strings.HasPrefix(rest, "internal/") {
		return "tip"
	}
	pkg, _, _ := strings.Cut(strings.TrimPrefix(rest, "internal/"), ".")
	switch pkg {
	case "cpu", "cache", "tlb", "branch", "mem", "program", "isa", "workload", "xrand":
		return "cpu"
	case "trace":
		return "trace"
	case "profiler", "sampling":
		if strings.Contains(fn, "Oracle") || strings.Contains(fn, ".oir") {
			return "profiler.oracle"
		}
		return "profiler.sampled"
	case "profile":
		return "profile"
	case "pprofenc":
		return "server.pprof"
	case "server", "experiments":
		return "server"
	case "fleet":
		return "fleet"
	}
	return "tip"
}

// benchmarkLayer is the row of the benchmark's own code, its HTTP client
// included: it is not part of the program under test.
const benchmarkLayer = "perfbench"

// catchAll are the rows of stacks that hold no layer of the repository: the
// Go runtime, its garbage collector and the daemon's network stack.
var catchAll = map[string]bool{"runtime": true, "runtime.gc": true, "http": true}

// stackLayer attributes one stack (leaf first) to a layer.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		// The client side of net/http: the transport's connection loops.
		if strings.HasPrefix(fn, "net/http.(*persistConn)") || strings.HasPrefix(fn, "net/http.(*Transport)") {
			return benchmarkLayer
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"):
			return "runtime.gc"
		case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net."):
			return "http"
		}
	}
	return "runtime"
}

// cpuProfile is a CPU profile in progress, or nil outside a traced run.
type cpuProfile struct {
	b   *bench
	buf bytes.Buffer
}

// startProfile starts profiling the process's CPU in a traced run.
func startProfile(b *bench) *cpuProfile {
	if b.tr == nil {
		return nil
	}
	p := &cpuProfile{b: b}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		b.fail("cpu profile: %v", err)
		return nil
	}
	return p
}

// stop ends the profile and folds it by layer; nil when there is none.
func (p *cpuProfile) stop() map[string]float64 {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	rows, err := foldProfile(p.buf.Bytes())
	if err != nil {
		p.b.fail("cpu profile: %v", err)
		return nil
	}
	return rows
}

// foldProfile decodes a gzipped pprof CPU profile and sums its CPU time per
// layer.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	// Value index of the CPU nanoseconds column.
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no nanoseconds column")
	}
	rows := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, fmt.Errorf("sample without value %d", vi)
		}
		var stack []string
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.str(p.functions[fid]))
			}
		}
		rows[stackLayer(stack)] += float64(s.values[vi]) / 1e9
	}
	return rows, nil
}

// profileData is the subset of profile.proto foldProfile needs.
type profileData struct {
	sampleTypes []int64 // string index of each value's unit
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → string index of its name
	strings     []string
}

type sample struct {
	locations []uint64
	values    []int64
}

func (p *profileData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireBytes  = 2
)

// field is one decoded protobuf field.
type field struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func fields(buf []byte) ([]field, error) {
	var out []field
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("bad field key")
		}
		buf = buf[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.v, n = binary.Uvarint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("bad varint")
			}
			buf = buf[n:]
		case wireBytes:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, fmt.Errorf("bad length")
			}
			f.b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 1:
			if len(buf) < 8 {
				return nil, fmt.Errorf("short fixed64")
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return nil, fmt.Errorf("short fixed32")
			}
			buf = buf[4:]
		default:
			return nil, fmt.Errorf("wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints decodes a repeated integer field, packed or not.
func uints(f field) ([]uint64, error) {
	if f.wire == wireVarint {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profileData, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			unit := int64(0)
			for _, g := range sub {
				if g.num == 2 {
					unit = int64(g.v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, unit)
		case 2: // sample: location_id=1, value=2
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, g := range sub {
				vs, err := uints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locations = append(s.locations, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location: id=1, line=4{function_id=1}
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					line, err := fields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function: id=1, name=2
			sub, err := fields(f.b)
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
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	return p, nil
}
