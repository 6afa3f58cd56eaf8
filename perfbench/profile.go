package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile that runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark needs only
// one thing from it — CPU time by the function each sample stopped in —
// so it decodes the handful of fields that takes, with the standard
// library alone.

// Field numbers in profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// selfByFunction decodes a gzipped CPU profile and returns the CPU
// nanoseconds each function spent as the innermost frame of a sample
// (self time; an inlined callee counts as itself, not its caller).
func selfByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = make(map[uint64]uint64) // location → innermost function
		funcName = make(map[uint64]int64)  // function → string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					locs = appendPacked(locs, wire, v, b)
				case fSampleValue:
					for _, x := range appendPacked(nil, wire, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				// The last value of a CPU profile is cpu/nanoseconds.
				samples = append(samples, sample{leaf: locs[0], value: vals[len(vals)-1]})
			}
		case fProfileLocation:
			var id, fn uint64
			first := true
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					// Lines list inlined frames innermost first.
					if !first {
						return nil
					}
					first = false
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == fLineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

// appendPacked appends the integers of a repeated scalar field, which an
// encoder may write packed (one length-delimited run) or one per field.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protocol buffer")

// eachField walks the fields of one protobuf message, calling fn with the
// field number, the wire type, and the varint value (wire type 0) or the
// bytes (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a base-128 varint, returning the value and the bytes
// read (0 when b ends mid-varint).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf maps a package import path to the layer its self time is
// reported under. Small helper packages fold into the layer that drives
// them; everything outside the simulator and the Go runtime is "other".
var layerOf = map[string]string{
	"ptbsim/internal/cpu":       "cpu",
	"ptbsim/internal/isa":       "cpu",
	"ptbsim/internal/workload":  "workload",
	"ptbsim/internal/syncprim":  "workload",
	"ptbsim/internal/xrand":     "workload",
	"ptbsim/internal/cache":     "cache",
	"ptbsim/internal/mem":       "cache",
	"ptbsim/internal/mesh":      "mesh",
	"ptbsim/internal/eventq":    "eventq",
	"ptbsim/internal/power":     "power",
	"ptbsim/internal/core":      "core",
	"ptbsim/internal/budget":    "budget",
	"ptbsim/internal/dvfs":      "budget",
	"ptbsim/internal/microarch": "budget",
	"ptbsim/internal/metrics":   "metrics",
	"ptbsim/internal/thermal":   "metrics",
	"ptbsim/internal/obs":       "metrics",
	"ptbsim/internal/invariant": "metrics",
	"ptbsim/internal/partition": "partition",
	"ptbsim/internal/sim":       "sim",
}

// layers lists every layer foldByLayer reports, in report order.
var layers = []string{"cpu", "workload", "cache", "mesh", "eventq", "power",
	"core", "budget", "metrics", "partition", "sim", "runtime", "other"}

// packageOf extracts the import path from a Go symbol name such as
// "ptbsim/internal/cpu.(*Core).fetch" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerFor folds a function into its layer.
func layerFor(fn string) string {
	pkg := packageOf(fn)
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// foldByLayer sums per-function self time into layers.
func foldByLayer(byFunc map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for fn, ns := range byFunc {
		out[layerFor(fn)] += ns
	}
	return out
}
