package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile by layer without any
// dependency beyond the standard library: the profile is gzip-compressed
// protobuf (github.com/google/pprof/proto/profile.proto), and only four
// of its messages matter here — Sample (a stack of location ids and its
// values), Location (its inlined Lines), Function (a name index) and
// the string table.

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	varnt uint64
	bytes []byte // non-nil for wire type 2
}

var errProto = errors.New("bench: malformed profile protobuf")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.varnt, b, err = pbVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := pbVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return nil, errProto
			}
			f.bytes, b = rest[:n:n], rest[n:]
			if f.bytes == nil {
				f.bytes = []byte{}
			}
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

// pbUints reads a repeated integer field occurrence, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.bytes == nil {
		return append(into, f.varnt), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// stackSample is one profile sample: its call stack as function names,
// innermost frame first (inlined frames expanded), and its sample count.
type stackSample struct {
	stack []string
	count int64
}

// decodeProfile parses a gzip-compressed pprof profile into samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: profile is not gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: reading profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		case 5: // function
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.varnt
				case 2:
					name = g.varnt
				}
			}
			funcName[id] = name
		case 4: // location
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.varnt
				case 4: // line; the first is the innermost inlined call
					ls, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							funcs = append(funcs, l.varnt)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 2: // sample
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range fs {
				switch g.num {
				case 1:
					if s.locs, err = pbUints(g, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = pbUints(g, s.values); err != nil {
						return nil, err
					}
				}
			}
			raws = append(raws, s)
		}
	}
	out := make([]stackSample, 0, len(raws))
	for _, s := range raws {
		if len(s.values) == 0 {
			return nil, errProto
		}
		st := stackSample{count: int64(s.values[0])} // value 0 is samples/count
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				st.stack = append(st.stack, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Layers a sample can fold to besides a repro/internal package name.
const (
	layerBench   = "bench"
	layerGC      = "goruntime.gc"
	layerRuntime = "goruntime.other"
)

// gcFrames mark a stack as garbage-collection work: the background mark
// workers, the sweeper and scavenger, and mark assists charged to an
// allocating goroutine.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcDrain":        true,
	"runtime.gcMarkDone":     true,
	"runtime.gcStart":        true,
}

// layerOf names the layer a stack's time belongs to: GC work wherever it
// runs; else the innermost repro/internal/<pkg> frame; else the bench
// itself; else the rest of the Go runtime.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return layerGC
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if pkg, _, ok := strings.Cut(rest, "."); ok {
				return pkg
			}
		}
		// The bench is package main in its own binary and repro/bench
		// under go test.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/bench.") {
			return layerBench
		}
	}
	return layerRuntime
}

// foldProfile returns each layer's share of the profile's samples in
// percent, and the total sample count.
func foldProfile(samples []stackSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	if total == 0 {
		return shares, 0
	}
	for layer, n := range counts {
		shares[layer] = 100 * float64(n) / float64(total)
	}
	return shares, total
}
