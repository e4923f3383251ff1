package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// moduleLayers are the repo's packages that run inside a trial or a sweep;
// layers are the rows of the profile roll-up: those, then the two catch-alls.
var (
	moduleLayers = []string{"sim", "netem", "quic", "cc", "httpsim", "player", "abr", "qoe",
		"exp", "sweep", "obs", "stats", "dash", "video", "prep", "server"}
	layers = append(moduleLayers[:len(moduleLayers):len(moduleLayers)], "runtime", "other")
)

// layerOf charges one stack to a layer: the package of the leaf-most frame
// that belongs to this module, so memmove and mallocgc count against the
// layer that called them. Stacks with no module frame at all (GC workers,
// the profiler itself) are "runtime"; module packages that are not rows of
// the table (trace, invariant, crosstraffic, the facade, this benchmark)
// are "other". frames is leaf first.
func layerOf(frames []string) string {
	for _, fn := range frames {
		var pkg string
		switch {
		case strings.HasPrefix(fn, "voxel/internal/"):
			pkg = strings.TrimPrefix(fn, "voxel/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
		case strings.HasPrefix(fn, "voxel.") || strings.HasPrefix(fn, "voxel/") || strings.HasPrefix(fn, "main."):
			return "other"
		default:
			continue
		}
		for _, l := range moduleLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// rollUp sums one sample type of a pprof profile by layer.
func rollUp(gz []byte, sampleType string) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	col := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile has no %q sample type (have %v)", sampleType, p.sampleTypes)
	}
	out := map[string]float64{}
	var frames []string
	for _, s := range p.samples {
		frames = frames[:0]
		for _, loc := range s.locations {
			frames = append(frames, p.locations[loc]...)
		}
		if col < len(s.values) {
			out[layerOf(frames)] += float64(s.values[col])
		}
	}
	return out, nil
}

// allocProfile snapshots the cumulative allocation profile. The runtime
// publishes allocation samples two GC cycles late, hence the forced GCs.
func allocProfile() ([]byte, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// profile is the part of pprof's profile.proto the roll-up needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	locations   map[uint64][]string // id → function names, leaf (inlined) first
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// decodeProfile reads a gzip-compressed profile.proto with nothing but the
// standard library (the repo has no module dependencies, and the field
// numbers below have been stable since pprof's first release).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		typeIdx   []uint64
		funcName  = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids
		p         = &profile{locations: map[uint64][]string{}}
		msg       = pbuf(raw)
		fieldErr  error
		eachField = func(b pbuf, fn func(num int, v uint64, data pbuf)) {
			for len(b) > 0 && fieldErr == nil {
				var num int
				var v uint64
				var data pbuf
				num, v, data, b, fieldErr = b.field()
				if fieldErr == nil {
					fn(num, v, data)
				}
			}
		}
	)
	eachField(msg, func(num int, v uint64, data pbuf) {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			eachField(data, func(n int, v uint64, _ pbuf) {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
			})
		case 2: // sample: {location_id=1, value=2}
			var s sample
			eachField(data, func(n int, v uint64, d pbuf) {
				switch n {
				case 1:
					s.locations = appendVarints(s.locations, v, d)
				case 2:
					for _, x := range appendVarints(nil, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
			})
			p.samples = append(p.samples, s)
		case 4: // location: {id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			eachField(data, func(n int, v uint64, d pbuf) {
				switch n {
				case 1:
					id = v
				case 4:
					eachField(d, func(n int, v uint64, _ pbuf) {
						if n == 1 {
							fns = append(fns, v)
						}
					})
				}
			})
			locFuncs[id] = fns
		case 5: // function: {id=1, name=2}
			var id, name uint64
			eachField(data, func(n int, v uint64, _ pbuf) {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	})
	if fieldErr != nil {
		return nil, fieldErr
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.locations[id] = names
	}
	return p, nil
}

// pbuf is a protobuf wire-format cursor.
type pbuf []byte

var errTruncated = errors.New("profile: truncated protobuf")

func (b pbuf) varint() (uint64, pbuf, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// field reads one field: its number, its varint value (wire type 0) or its
// bytes (wire type 2), and the rest of the buffer. Fixed-width fields are
// skipped as empty values; profile.proto has none the roll-up reads.
func (b pbuf) field() (num int, v uint64, data, rest pbuf, err error) {
	key, b, err := b.varint()
	if err != nil {
		return 0, 0, nil, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, b, err = b.varint()
		return num, v, nil, b, err
	case 1:
		if len(b) < 8 {
			return 0, 0, nil, nil, errTruncated
		}
		return num, 0, nil, b[8:], nil
	case 2:
		n, b, err := b.varint()
		if err != nil || n > uint64(len(b)) {
			return 0, 0, nil, nil, errTruncated
		}
		return num, 0, b[:n], b[n:], nil
	case 5:
		if len(b) < 4 {
			return 0, 0, nil, nil, errTruncated
		}
		return num, 0, nil, b[4:], nil
	}
	return 0, 0, nil, nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
}

// appendVarints appends a repeated varint field's value(s): the single
// value v when it came unpacked, or every varint in data when packed.
func appendVarints(dst []uint64, v uint64, data pbuf) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		var x uint64
		var err error
		x, data, err = data.varint()
		if err != nil {
			break
		}
		dst = append(dst, x)
	}
	return dst
}
