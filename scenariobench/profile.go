package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small decoder for the pprof profile format (a gzipped
// perftools.profiles.Profile protobuf), reading only what layer
// attribution needs: each sample's call stack as function names,
// innermost first, and one of its values.

// stackSample is one decoded profile sample.
type stackSample struct {
	// funcs is the call stack, innermost frame first, with inlined
	// frames expanded in place.
	funcs []string
	value int64
}

// Field numbers of the profile.proto messages the decoder reads.
const (
	profSampleType   = 1
	profSample       = 2
	profLocation     = 4
	profFunction     = 5
	profStringTable  = 6
	sampleLocationID = 1
	sampleValue      = 2
	valueTypeType    = 1
	locationID       = 1
	locationLine     = 4
	lineFunctionID   = 1
	functionID       = 1
	functionName     = 2
)

// parseProfile decodes a pprof profile and returns its samples with the
// value of the named sample type ("cpu" for CPU profiles, "delay" for
// block profiles).
func parseProfile(data []byte, sampleType string) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		types   []uint64 // string index of each sample type's name
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id → name string index
		strs    []string
	)
	err := eachField(data, func(num, wire int, p *pbuf) error {
		switch num {
		case profSampleType:
			msg, err := p.bytes(wire)
			if err != nil {
				return err
			}
			var name uint64
			err = eachField(msg, func(num, wire int, p *pbuf) error {
				if num == valueTypeType {
					v, err := p.uint(wire)
					name = v
					return err
				}
				return p.skip(wire)
			})
			types = append(types, name)
			return err
		case profSample:
			msg, err := p.bytes(wire)
			if err != nil {
				return err
			}
			var s rawSample
			err = eachField(msg, func(num, wire int, p *pbuf) error {
				switch num {
				case sampleLocationID:
					return p.uints(wire, &s.locs)
				case sampleValue:
					return p.uints(wire, &s.values)
				}
				return p.skip(wire)
			})
			samples = append(samples, s)
			return err
		case profLocation:
			msg, err := p.bytes(wire)
			if err != nil {
				return err
			}
			var id uint64
			var fns []uint64
			err = eachField(msg, func(num, wire int, p *pbuf) error {
				switch num {
				case locationID:
					v, err := p.uint(wire)
					id = v
					return err
				case locationLine:
					line, err := p.bytes(wire)
					if err != nil {
						return err
					}
					return eachField(line, func(num, wire int, p *pbuf) error {
						if num == lineFunctionID {
							v, err := p.uint(wire)
							fns = append(fns, v)
							return err
						}
						return p.skip(wire)
					})
				}
				return p.skip(wire)
			})
			locs[id] = fns
			return err
		case profFunction:
			msg, err := p.bytes(wire)
			if err != nil {
				return err
			}
			var id, name uint64
			err = eachField(msg, func(num, wire int, p *pbuf) error {
				switch num {
				case functionID:
					v, err := p.uint(wire)
					id = v
					return err
				case functionName:
					v, err := p.uint(wire)
					name = v
					return err
				}
				return p.skip(wire)
			})
			funcs[id] = name
			return err
		case profStringTable:
			s, err := p.bytes(wire)
			strs = append(strs, string(s))
			return err
		}
		return p.skip(wire)
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := -1
	for i, t := range types {
		if str(t) == sampleType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no sample type %q", sampleType)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample with too few values")
		}
		var names []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				names = append(names, str(funcs[f]))
			}
		}
		out = append(out, stackSample{funcs: names, value: int64(s.values[vi])})
	}
	return out, nil
}

// pbuf reads protobuf wire format.
type pbuf struct{ b []byte }

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("protobuf varint overflow")
}

// uint reads a varint field.
func (p *pbuf) uint(wire int) (uint64, error) {
	if wire != 0 {
		return 0, fmt.Errorf("protobuf wire type %d, want varint", wire)
	}
	return p.varint()
}

// uints appends a repeated varint field, packed or not, to dst.
func (p *pbuf) uints(wire int, dst *[]uint64) error {
	if wire == 0 {
		v, err := p.varint()
		*dst = append(*dst, v)
		return err
	}
	b, err := p.bytes(wire)
	if err != nil {
		return err
	}
	packed := &pbuf{b}
	for len(packed.b) > 0 {
		v, err := packed.varint()
		if err != nil {
			return err
		}
		*dst = append(*dst, v)
	}
	return nil
}

// bytes reads a length-delimited field.
func (p *pbuf) bytes(wire int) ([]byte, error) {
	if wire != 2 {
		return nil, fmt.Errorf("protobuf wire type %d, want bytes", wire)
	}
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)) {
		return nil, errTruncated
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b, nil
}

func (p *pbuf) skip(wire int) error {
	var n int
	switch wire {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := p.bytes(wire)
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("protobuf wire type %d", wire)
	}
	if len(p.b) < n {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// eachField calls fn for every field of the message msg; fn must
// consume the field's payload.
func eachField(msg []byte, fn func(num, wire int, p *pbuf) error) error {
	p := &pbuf{msg}
	for len(p.b) > 0 {
		key, err := p.varint()
		if err != nil {
			return err
		}
		if err := fn(int(key>>3), int(key&7), p); err != nil {
			return err
		}
	}
	return nil
}

// Layers host time is charged to. Each repo module is a layer named
// after its directory under internal/ (sim/pdes is its own layer);
// "handoff" is the engine's proc coroutine handoff inside sim, "bench"
// this benchmark's own code, "other" any other repo package, and the
// go.* layers the Go runtime when no repo frame is on the stack.
const (
	layerHandoff = "handoff"
	layerBench   = "bench"
	layerOther   = "other"
	layerGoSched = "go.sched"
	layerGoGC    = "go.gc"
)

// layers lists every layer in report order.
var layers = []string{
	layerHandoff, "sim", "pdes", "kernel", "glibc", "nosv", "usf", "rt", "hw",
	"blas", "mpi", "workloads", "cluster", "load", "metrics", "obs", "stack",
	"trace", "experiments", "harness", layerBench, layerOther, layerGoSched, layerGoGC,
}

// handoffFuncs are the sim functions whose frames are the proc
// coroutine handoff: the engine side (dispatch), the proc side (Park),
// and the goroutine wrapper Spawn starts around every proc body.
var handoffFuncs = []string{
	"repro/internal/sim.(*Engine).dispatch",
	"repro/internal/sim.(*Proc).Park",
}

const spawnWrapperPrefix = "repro/internal/sim.(*Engine).Spawn.func"

// gcWorkers are the runtime's background collector goroutines.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// layerOf charges a stack (innermost frame first) to a layer: the
// module of its innermost repo frame, so runtime work a module calls
// into (allocation, channel operations, map access) is that module's
// cost, except that the handoff frames go to the handoff layer. A stack
// without repo frames goes to go.gc when a collector goroutine runs it
// and to go.sched otherwise (mostly goroutine switches on the system
// stack, which carry no user frames).
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if l, ok := repoLayer(fn); ok {
			if isHandoff(fn) {
				return layerHandoff
			}
			return l
		}
	}
	for _, fn := range funcs {
		if gcWorkers[fn] {
			return layerGoGC
		}
	}
	return layerGoSched
}

func isHandoff(fn string) bool {
	for _, h := range handoffFuncs {
		if fn == h {
			return true
		}
	}
	return strings.HasPrefix(fn, spawnWrapperPrefix)
}

// repoLayer returns the layer of a repo function, or false when fn is
// not repo code. Functions of package main are this benchmark.
func repoLayer(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return layerBench, true
	}
	if !strings.HasPrefix(fn, "repro/") && !strings.HasPrefix(fn, "repro.") {
		return "", false
	}
	rest := strings.TrimPrefix(fn, "repro/internal/")
	if rest == fn {
		return layerOther, true
	}
	// The package path ends at the first dot after its last slash; no
	// directory of the repo has a dot in its name.
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return layerOther, true
	}
	pkg := rest[:dot]
	if pkg == "sim/pdes" {
		return "pdes", true
	}
	top, _, _ := strings.Cut(pkg, "/")
	for _, l := range layers {
		if l == top {
			return l, true
		}
	}
	return layerOther, true
}

// bucket sums sample values per layer. Every sample lands in exactly
// one layer, so the buckets add up to the profile's total.
func bucket(samples []stackSample) (byLayer map[string]int64, total int64) {
	byLayer = make(map[string]int64, len(layers))
	for _, s := range samples {
		byLayer[layerOf(s.funcs)] += s.value
		total += s.value
	}
	return byLayer, total
}
