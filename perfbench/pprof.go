package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the buckets cpu_share.<package> reports: the repository's
// packages that carry CPU in the workloads, then the Go runtime, then
// everything else (the standard library outside the runtime included).
// workload's random generator package xrand counts as workload.
var cpuPackages = []string{
	"workload", "trace", "predictor", "core", "bitvec", "sim", "analysis",
	"pipeline", "apps", "exp", "artifact", "serve", "runtime", "other",
}

// packageOf maps a profiled function name onto its cpuPackages bucket.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "branchconf/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		if pkg == "xrand" {
			return "workload"
		}
		for _, p := range cpuPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// cpuPackages bucket's share of the sampled CPU time. A sample is charged
// to the innermost frame, inlined frames included, that belongs to this
// repository's packages, so standard-library helpers (sorting, hashing,
// map access) count against the layer that called them. Samples with no
// such frame (GC workers, the scheduler, HTTP plumbing) go to runtime when
// their leaf is in the runtime, and to other otherwise.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs       []string
		valueTypes []uint64 // string index of each sample type's name
		funcName   = map[uint64]uint64{}
		locFuncs   = map[uint64][]uint64{} // location id -> function ids
		samples    [][2][]uint64           // (location ids, values)
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return protoFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				if f == 1 || f == 2 {
					vals, err := repeatedVarints(w, v, b)
					s[f-1] = append(s[f-1], vals...)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64 // innermost inlined function first
			err := protoFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// Weigh samples by CPU nanoseconds when the profile records them.
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			vi = i
		}
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s[0]) == 0 || vi < 0 || vi >= len(s[1]) {
			continue
		}
		w := float64(s[1][vi])
		shares[chargeTo(s[0], locFuncs, funcName, strs)] += w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no CPU samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// chargeTo picks the bucket a sample's stack (leaf location first) is
// charged to; see cpuShares.
func chargeTo(locs []uint64, locFuncs map[uint64][]uint64, funcName map[uint64]uint64, strs []string) string {
	leaf := ""
	for _, loc := range locs {
		for _, fn := range locFuncs[loc] {
			name := ""
			if idx := funcName[fn]; idx < uint64(len(strs)) {
				name = strs[idx]
			}
			if leaf == "" {
				leaf = name
			}
			if strings.HasPrefix(name, "branchconf/internal/") {
				return packageOf(name)
			}
		}
	}
	return packageOf(leaf)
}

// protoFields walks one protobuf message, calling fn with each field's
// number and wire type and either its varint value or its bytes.
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length-delimited field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints decodes a repeated varint field in either encoding: one
// value per field (wire type 0) or packed into one length-delimited field.
func repeatedVarints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
