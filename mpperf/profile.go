package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// leafSample is one CPU profile sample reduced to what flat attribution
// needs: the innermost function of its leaf frame, the sampled CPU time,
// and how many profiler ticks it stands for.
type leafSample struct {
	fn    string
	ns    int64
	count int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile (gzipped
// profile.proto) into leaf samples. Only the fields flat attribution needs
// are read; the standard library ships no decoder and nothing outside it
// may be imported.
func parseCPUProfile(gz []byte) ([]leafSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, values []uint64 }
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []sample
		locFunc     = map[uint64]uint64{} // location id -> innermost function id
		funcName    = map[uint64]uint64{} // function id -> string index
		strs        []string
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample: {location_id=1, value=2}
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id=1, line=4{function_id=1}}
			var id, fn uint64
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					// The first line is the innermost inlined function.
					if !first {
						return nil
					}
					first = false
					return eachField(b, func(f int, v uint64, _ []byte) error {
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
		case 5: // function: {id=1, name=2}
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
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
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx, countIdx := -1, -1
	for i, t := range sampleTypes {
		switch str(t) {
		case "cpu":
			cpuIdx = i
		case "samples":
			countIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("profile has no cpu sample type")
	}
	out := make([]leafSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, fmt.Errorf("sample without a cpu value")
		}
		ls := leafSample{ns: int64(s.values[cpuIdx]), count: 1}
		if countIdx >= 0 && countIdx < len(s.values) {
			ls.count = int64(s.values[countIdx])
		}
		if len(s.locs) > 0 {
			ls.fn = str(funcName[locFunc[s.locs[0]]])
		}
		out = append(out, ls)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint and
// fixed fields v holds the value; for length-delimited fields b holds the
// payload.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated integer field occurrence, packed
// (payload b) or not (value v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
