package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// Attribution buckets: the repository's layers, then three that are not.
const (
	bucketSyscall = "net.syscall"
	bucketGC      = "runtime.gc"
	bucketOther   = "runtime.other"
)

var (
	layers = []string{
		"sim", "simos", "simnet", "core", "wire", "loadbalance", "httpsim",
		"workload", "connpool", "tcpverbs", "livemon",
	}
	buckets = append(append([]string(nil), layers...), bucketSyscall, bucketGC, bucketOther)
)

// attribution accumulates profiled CPU time per bucket.
type attribution struct {
	ns      map[string]int64
	samples int64
}

func newAttribution() *attribution { return &attribution{ns: map[string]int64{}} }

func (a *attribution) total() int64 {
	var t int64
	for _, v := range a.ns {
		t += v
	}
	return t
}

// profiled runs fn under the CPU profiler, at its default 100 Hz, and
// adds its samples to a. (Higher rates lose samples on small VMs.)
func (a *attribution) profiled(fn func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return a.add(buf.Bytes())
}

// add decodes one gzipped profile.proto and charges every sample.
func (a *attribution) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	count, cpu := -1, -1
	for i, t := range p.sampleTypes {
		switch p.str(t) {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return errors.New("profile: no samples/cpu sample types")
	}
	for _, s := range p.samples {
		if count >= len(s.values) || cpu >= len(s.values) {
			return errors.New("profile: short sample")
		}
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				frames = append(frames, p.str(p.functions[fid]))
			}
		}
		b := bucketOf(frames)
		if b == "" {
			continue
		}
		a.ns[b] += s.values[cpu]
		a.samples += s.values[count]
	}
	return nil
}

// bucketOf charges one stack, given leaf first with inlined frames
// expanded innermost first. It returns "" for the host-speed reference
// kernel, whose time is no part of the program's.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.(*hostSpeed).") || strings.HasPrefix(f, "main.(*refKernel).") {
			return ""
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "syscall.") || strings.HasPrefix(f, "internal/poll.") {
			return bucketSyscall
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return bucketOther // the benchmark's own code
		}
		if rest, ok := strings.CutPrefix(f, "rdmamon/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if slices.Contains(layers, pkg) {
				return pkg
			}
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return bucketGC
		}
	}
	return bucketOther
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	sampleTypes []int64 // string index of each value's type
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, body []byte) error {
		switch num {
		case fProfileSampleType:
			var typ int64
			err := eachField(body, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s profSample
			err := eachField(body, func(n int, v uint64, b []byte) error {
				switch n {
				case fSampleLocation:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(body, func(n int, v uint64, b []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(body, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message. fn gets the field number and
// either the scalar value (varint and fixed types) or the body of a
// length-delimited field.
func eachField(b []byte, fn func(num int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var body []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if typ == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d", typ)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated varint field in either encoding: one
// value (v, body nil) or a packed body.
func varints(v uint64, body []byte, add func(uint64)) error {
	if body == nil {
		add(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		body = body[n:]
	}
	return nil
}
