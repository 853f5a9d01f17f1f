package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run's CPU profile is read with a minimal decoder of the
// pprof protobuf format (profile.proto): only samples, locations, their
// inlined lines, functions and the string table are needed to fold
// samples by layer.

// profSample is one profile sample: its stack as function names, leaf
// first (inlined frames expanded innermost first), and its sample count.
type profSample struct {
	stack []string
	count int64
}

// modulePrefix is the import path prefix of this module's packages.
const modulePrefix = "github.com/mcn-arch/mcn/internal/"

// shareLayers are the layers host time is folded into, in print order:
// the module's packages that run on a serving path, then gc for the
// runtime's collector, then other for the rest: a frame of a module
// package outside this list, or no module frame and no scheduler frame.
var shareLayers = []string{
	"sim", "cpu", "dram", "sram", "core", "netstack", "mcnt", "kvstore",
	"serve", "admit", "replica", "nmop", "obs", "stats", "node", "faults",
	"gc", "other",
}

// gcFrames mark a sample taken in the collector's own workers; GC assist
// inside an allocation stays with the layer that allocated.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// schedFrames mark the runtime scheduler switching goroutines. Its
// samples run on the system stack and carry no frame of the goroutine
// that parked; during a run every park is the sim kernel handing the
// execution token to another process, so they are charged to sim.
var schedFrames = map[string]bool{
	"runtime.mcall":        true,
	"runtime.park_m":       true,
	"runtime.schedule":     true,
	"runtime.findRunnable": true,
}

// layerOf charges one stack to exactly one layer: gc when a collector
// worker is on the stack, otherwise the package of the innermost frame
// that belongs to this module, otherwise sim for the scheduler and other
// for anything else.
func layerOf(stack []string) string {
	sched := false
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
		sched = sched || schedFrames[fn]
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if i := strings.IndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range shareLayers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	if sched {
		return "sim"
	}
	return "other"
}

// foldShares sums sample counts per layer and normalizes them to shares
// of the total. Every layer in shareLayers is present, and the shares
// sum to 1 (all zero for an empty profile).
func foldShares(samples []profSample) (shares map[string]float64, total int64) {
	counts := make(map[string]int64, len(shareLayers))
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares = make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	return shares, total
}

// parseProfile decodes a gzipped pprof profile into samples.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		ps := profSample{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated integer field's values, given either
// one unpacked value (v) or a packed run (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes (b is
// nil for varints).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its byte length (0 when
// truncated).
func varint(b []byte) (uint64, int) {
	var u uint64
	for i := 0; i < len(b) && i < 10; i++ {
		u |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return u, i + 1
		}
	}
	return 0, 0
}
