package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "memnet/internal/"

// layerOf maps a memnet/internal package to the benchmark layer that
// owns its CPU time. Packages outside the map fold into "other".
var layerOf = map[string]string{
	"sim":         "sim",
	"router":      "router",
	"arb":         "router",
	"link":        "link",
	"vault":       "vault",
	"mem":         "vault",
	"host":        "host",
	"workload":    "host",
	"topology":    "core",
	"core":        "core",
	"experiments": "experiments",
	"fault":       "fault",
	"obs":         "obs",
	"span":        "obs",
	"trace":       "obs",
}

// cpuProfile is the part of a pprof CPU profile the layer breakdown
// needs: the self (leaf-frame) CPU time of every function.
type cpuProfile struct {
	// Self is leaf-frame CPU nanoseconds per function name.
	Self map[string]int64
	// Total is the CPU nanoseconds of every sample.
	Total int64
}

// layerShares sums self time per memnet/internal package into layers,
// as a share of all sampled CPU time. Runtime, standard-library and
// benchmark frames count in the total but in no layer, so the shares
// sum to at most 1.
func (p *cpuProfile) layerShares() map[string]float64 {
	out := make(map[string]float64)
	if p.Total == 0 {
		return out
	}
	for fn, ns := range p.Self {
		pkg, ok := internalPackage(fn)
		if !ok {
			continue
		}
		layer, ok := layerOf[pkg]
		if !ok {
			layer = "other"
		}
		out[layer] += float64(ns) / float64(p.Total)
	}
	return out
}

// internalPackage returns the memnet/internal package a fully
// qualified function name belongs to, e.g. "router" for
// "memnet/internal/router.(*Router).drain".
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// parseCPUProfile decodes a gzip-compressed pprof profile (the format
// runtime/pprof writes) far enough to attribute each sample's last
// value (CPU nanoseconds) to its leaf function.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{} // location -> innermost function
		funcName = map[uint64]int64{}  // function -> string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line; the first entry is the innermost frame
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{Self: make(map[string]int64)}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1]
		p.Total += ns
		if len(s.locs) == 0 {
			continue
		}
		name := "?"
		if si, ok := funcName[locFunc[s.locs[0]]]; ok && si >= 0 && si < int64(len(strs)) {
			name = strs[si]
		}
		p.Self[name] += ns
	}
	return p, nil
}

// appendPacked appends a repeated integer field, which protobuf encodes
// either one varint per field or packed into a length-delimited run.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message. fn gets the field
// number, the wire type, the value for varint fields and the payload for
// length-delimited ones; fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning the byte count (0 when
// b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
