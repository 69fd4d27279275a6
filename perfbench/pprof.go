package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// The standard library writes CPU profiles as gzipped profile.proto but has
// no reader for them, so this file decodes the few messages attribution
// needs: samples, locations (with inlined lines) and functions.

type cpuSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

type frame struct{ name, file string }

type cpuProfile struct {
	samples []cpuSample
	locs    map[uint64][]frame // innermost inlined frame first
}

// stack returns a sample's frames from the leaf outwards.
func (p *cpuProfile) stack(s cpuSample) []frame {
	var out []frame
	for _, id := range s.locs {
		out = append(out, p.locs[id]...)
	}
	return out
}

type protoBuf struct {
	b []byte
	i int
}

func (p *protoBuf) done() bool { return p.i >= len(p.b) }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if p.i >= len(p.b) {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[p.i]
		p.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

func (p *protoBuf) key() (field int, wire int, err error) {
	k, err := p.varint()
	return int(k >> 3), int(k & 7), err
}

func (p *protoBuf) bytes() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if uint64(len(p.b)-p.i) < n {
		return nil, io.ErrUnexpectedEOF
	}
	out := p.b[p.i : p.i+int(n)]
	p.i += int(n)
	return out, nil
}

func (p *protoBuf) skip(wire int) error {
	var n int
	switch wire {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := p.bytes()
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("unsupported wire type %d", wire)
	}
	if len(p.b)-p.i < n {
		return io.ErrUnexpectedEOF
	}
	p.i += n
	return nil
}

// uints reads a repeated integer field, packed (wire 2) or not (wire 0).
func (p *protoBuf) uints(wire int, dst []uint64) ([]uint64, error) {
	if wire == 0 {
		v, err := p.varint()
		return append(dst, v), err
	}
	raw, err := p.bytes()
	if err != nil {
		return dst, err
	}
	q := protoBuf{b: raw}
	for !q.done() {
		v, err := q.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// fields walks a message, handing each field to fn; fn returns false for
// fields it does not consume, which are skipped.
func fields(b []byte, fn func(p *protoBuf, field, wire int) (bool, error)) error {
	p := protoBuf{b: b}
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return err
		}
		used, err := fn(&p, field, wire)
		if err != nil {
			return err
		}
		if !used {
			if err := p.skip(wire); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawFunc struct{ name, file uint64 }
	var (
		strs      []string
		types     []uint64 // sample_type's type string index per value
		samples   []struct{ locs, vals []uint64 }
		funcs     = map[uint64]rawFunc{}
		locFuncs  = map[uint64][]uint64{}
		valueType = func(b []byte) (uint64, error) {
			var t uint64
			err := fields(b, func(p *protoBuf, f, w int) (bool, error) {
				if f != 1 {
					return false, nil
				}
				v, err := p.varint()
				t = v
				return true, err
			})
			return t, err
		}
	)
	err := fields(data, func(p *protoBuf, field, wire int) (bool, error) {
		if wire != 2 {
			return false, nil
		}
		msg, err := p.bytes()
		if err != nil {
			return true, err
		}
		switch field {
		case 1: // sample_type
			t, err := valueType(msg)
			types = append(types, t)
			return true, err
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := fields(msg, func(q *protoBuf, f, w int) (bool, error) {
				var err error
				switch f {
				case 1:
					s.locs, err = q.uints(w, s.locs)
				case 2:
					s.vals, err = q.uints(w, s.vals)
				default:
					return false, nil
				}
				return true, err
			})
			samples = append(samples, s)
			return true, err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(msg, func(q *protoBuf, f, w int) (bool, error) {
				switch f {
				case 1:
					v, err := q.varint()
					id = v
					return true, err
				case 4: // line
					line, err := q.bytes()
					if err != nil {
						return true, err
					}
					return true, fields(line, func(r *protoBuf, f, w int) (bool, error) {
						if f != 1 {
							return false, nil
						}
						v, err := r.varint()
						fns = append(fns, v)
						return true, err
					})
				}
				return false, nil
			})
			locFuncs[id] = fns
			return true, err
		case 5: // function
			var id uint64
			var fn rawFunc
			err := fields(msg, func(q *protoBuf, f, w int) (bool, error) {
				var err error
				switch f {
				case 1:
					id, err = q.varint()
				case 2:
					fn.name, err = q.varint()
				case 4:
					fn.file, err = q.varint()
				default:
					return false, nil
				}
				return true, err
			})
			funcs[id] = fn
			return true, err
		case 6: // string_table
			strs = append(strs, string(msg))
			return true, nil
		}
		return true, nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The CPU time value is the one whose sample type is "cpu" (runtime/pprof
	// writes [samples/count, cpu/nanoseconds]).
	vi := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			vi = i
		}
	}
	prof := &cpuProfile{locs: make(map[uint64][]frame, len(locFuncs))}
	for id, fns := range locFuncs {
		frames := make([]frame, len(fns))
		for i, f := range fns {
			frames[i] = frame{name: str(funcs[f].name), file: str(funcs[f].file)}
		}
		prof.locs[id] = frames
	}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			continue
		}
		prof.samples = append(prof.samples, cpuSample{locs: s.locs, value: int64(s.vals[vi])})
	}
	return prof, nil
}
