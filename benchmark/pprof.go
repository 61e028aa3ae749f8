package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes, with the
// standard library only: a gzip stream holding one protobuf Profile
// message (github.com/google/pprof/proto/profile.proto). Only the
// fields CPU attribution needs are decoded — sample types, samples,
// locations with their (inlined) lines, functions and the string
// table; everything else is skipped by wire type.

// cpuProfile is the decoded subset of a pprof profile.
type cpuProfile struct {
	sampleTypes []string // "type/unit" per sample value index
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]string   // function id -> name
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Profile message field numbers (profile.proto).
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("pprof: truncated message")

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field's number and wire type, with the payload
// of a length-delimited field in data and a scalar's value in v.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		v, err = r.varint()
	case wireI64:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case wireI32:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	case wireBytes:
		var n uint64
		if n, err = r.varint(); err != nil {
			break
		}
		if n > uint64(len(r.b)) {
			return 0, 0, 0, nil, errTruncated
		}
		data, r.b = r.b[:n], r.b[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// appendUints decodes a repeated integer field, which encoders may
// write packed (one length-delimited run) or one varint per element;
// runtime/pprof does both, depending on the element count.
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	if wire != wireBytes {
		return dst, fmt.Errorf("pprof: repeated integer with wire type %d", wire)
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(raw []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	p := &cpuProfile{locations: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var typeIdx [][2]uint64 // (type, unit) string indices per sample type
	funcNameIdx := map[uint64]uint64{}

	r := pbReader{msg}
	for len(r.b) > 0 {
		field, wire, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		if wire != wireBytes {
			continue
		}
		switch field {
		case fProfileString:
			strs = append(strs, string(data))
		case fProfileSampleType:
			var vt [2]uint64
			if err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fValueTypeType:
					vt[0] = v
				case fValueTypeUnit:
					vt[1] = v
				}
				return nil
			}); err != nil {
				return nil, err
			}
			typeIdx = append(typeIdx, vt)
		case fProfileSample:
			var s profSample
			var vals []uint64
			if err := eachField(data, func(f, w int, v uint64, d []byte) error {
				var err error
				switch f {
				case fSampleLocation:
					s.locs, err = appendUints(s.locs, w, v, d)
				case fSampleValue:
					vals, err = appendUints(vals, w, v, d)
				}
				return err
			}); err != nil {
				return nil, err
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(d, func(f, _ int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.locations[id] = fns
		case fProfileFunction:
			var id, name uint64
			if err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			}); err != nil {
				return nil, err
			}
			funcNameIdx[id] = name
		}
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	for _, vt := range typeIdx {
		typ, err := str(vt[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(vt[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for id, idx := range funcNameIdx {
		name, err := str(idx)
		if err != nil {
			return nil, err
		}
		p.funcNames[id] = name
	}
	return p, nil
}

// eachField calls fn for every field of one embedded message.
func eachField(msg []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	r := pbReader{msg}
	for len(r.b) > 0 {
		field, wire, v, data, err := r.next()
		if err != nil {
			return err
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// runtimeLayer receives samples whose stack holds no kshot frame: GC,
// the scheduler, and the standard library running on its own.
const runtimeLayer = "runtime"

// internalPrefix is the import-path prefix of the system's packages.
const internalPrefix = "kshot/internal/"

// internalPackage returns the kshot/internal package a function
// symbol belongs to ("mem" for "kshot/internal/mem.(*Physical).Read"),
// or "" for any other symbol.
func internalPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// cpuByPackage attributes every sample's CPU time to the innermost
// kshot/internal package on its stack, counting inlined frames;
// standard-library frames thus count toward their kshot caller, and
// samples with no kshot frame go to runtimeLayer. It returns
// nanoseconds per package and in total.
func cpuByPackage(p *cpuProfile) (map[string]int64, int64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu/nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, fmt.Errorf("pprof: no cpu/nanoseconds sample type in %v", p.sampleTypes)
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("pprof: sample shorter than its sample types")
		}
		ns := s.values[vi]
		total += ns
		byPkg[samplePackage(p, s)] += ns
	}
	return byPkg, total, nil
}

func samplePackage(p *cpuProfile, s profSample) string {
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if pkg := internalPackage(p.funcNames[fn]); pkg != "" {
				return pkg
			}
		}
	}
	return runtimeLayer
}
