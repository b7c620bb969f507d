package main

// A minimal reader for the gzipped profile.proto that runtime/pprof writes,
// just enough to fold a CPU profile's flat time by Go package: the span
// budget's cross-check, with no dependency beyond the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// foldByPackage returns the CPU seconds each package's own code (the leaf
// frame of every sample, inlined frames resolved) spent in the profile.
func foldByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{} // function id -> name string index
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbRepeated(s.locs, v, b)
				case 2:
					s.vals = pbRepeated(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			seenLine := false
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seenLine: // the first line is the innermost frame
					seenLine = true
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
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
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		ns := s.vals[len(s.vals)-1] // CPU profiles end with cpu/nanoseconds
		name := "?"
		if i := funcName[locFunc[s.locs[0]]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		out[packageOf(name)] += float64(ns) / 1e9
	}
	return out, nil
}

// packageOf cuts a symbol such as heteromem/internal/sched.(*Scheduler).Advance
// down to its package path.
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/') + 1
	if dot := strings.IndexByte(sym[slash:], '.'); dot >= 0 {
		return sym[:slash+dot]
	}
	return sym
}

// pbRepeated appends a repeated varint field, packed (b) or not (v).
func pbRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or (for length-delimited fields) its bytes.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := pbVarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = pbVarint(data); n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := pbVarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
