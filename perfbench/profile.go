package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// The traced run takes a CPU profile with runtime/pprof and splits it
// two ways: by pprof goroutine labels the benchmark sets itself
// (phase=setup|run, side=crawler|peer|client|server|publisher), and by
// layer, bucketing each sample by its innermost frame in a repository
// package. The profile is decoded here with a minimal protobuf reader
// (the profile.proto subset runtime/pprof writes), so the benchmark
// needs nothing outside the standard library.

// labels sets the calling goroutine's pprof labels. Goroutines it
// starts afterwards inherit them.
func labels(kv ...string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(kv...)))
}

// cpuProfile is a running or finished CPU profile.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, saves it under dir for `go tool pprof`, and
// decodes it.
func (p *cpuProfile) stop(dir, stem string) (*profile, string, error) {
	pprof.StopCPUProfile()
	path := ""
	if err := os.MkdirAll(dir, 0o755); err == nil {
		path = filepath.Join(dir, stem+".cpu.pprof")
		if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
			return nil, "", err
		}
	}
	prof, err := decodeProfile(p.buf.Bytes())
	return prof, path, err
}

// profile is the decoded subset: per sample, its CPU time, its labels
// and its call stack as function names, innermost first (inlined
// frames expanded).
type profile struct {
	samples []sample
}

type sample struct {
	count  int64 // profiler ticks aggregated into this stack and label set
	ns     int64
	labels map[string]string
	frames []string
}

// Layer buckets. Each sample lands in exactly one: the package of its
// innermost repository frame (standard-library crypto called by ecies
// counts as ecies), or, for samples with no repository frame, net/http,
// the runtime alone (GC workers, scheduler), or other.
var layerBuckets = []string{
	"secp256k1", "keccak", "ecies", "rlpx", "rlp", "snappy", "devp2p", "eth",
	"simnet", "netpipe", "simclock", "nodefinder", "mlog", "nodedb", "geo",
	"census", "analysis", "repo_other", "bench", "nethttp", "runtime", "other",
}

// Cross-cutting buckets count a sample when any frame of its stack
// matches, so they overlap the layer buckets.
var crossBuckets = []struct {
	name     string
	prefixes []string
}{
	{"runtime_gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.sweepone",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}},
	{"runtime_map", []string{"internal/runtime/maps.", "runtime.map"}},
	{"syscall", []string{"syscall.", "internal/runtime/syscall."}},
}

var sides = []string{"crawler", "peer", "client", "server", "publisher"}

func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
		if !strings.HasPrefix(f, "repro/") {
			continue
		}
		pkg := f
		if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
			if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
				pkg = pkg[slash+1 : slash+dot]
			}
		}
		for _, b := range layerBuckets {
			if b == pkg {
				return pkg
			}
		}
		return "repo_other"
	}
	runtimeOnly := true
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") {
			return "nethttp"
		}
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime"
	}
	return "other"
}

// cpuSplit is the share of CPU time per bucket among the samples a
// filter selects.
type cpuSplit struct {
	totalNS int64
	samples int
	shares  map[string]float64
}

func (p *profile) split(keep func(sample) bool) cpuSplit {
	ns := make(map[string]int64)
	s := cpuSplit{shares: make(map[string]float64)}
	for _, smp := range p.samples {
		if !keep(smp) {
			continue
		}
		s.totalNS += smp.ns
		s.samples += int(smp.count)
		ns[layerOf(smp.frames)] += smp.ns
		for _, cb := range crossBuckets {
			if anyPrefix(smp.frames, cb.prefixes) {
				ns[cb.name] += smp.ns
			}
		}
		if side := smp.labels["side"]; side != "" {
			ns["side."+side] += smp.ns
		}
	}
	for k, v := range ns {
		if s.totalNS > 0 {
			s.shares[k] = float64(v) / float64(s.totalNS)
		}
	}
	return s
}

func anyPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// addCPUMetrics reports the profile's splits: every layer, cross-cut
// and side share of the measured phase, the publisher's own layer
// split (census-serve), and the layers of set-up.
func addCPUMetrics(rep *report, prof *profile) {
	run := prof.split(func(s sample) bool { return s.labels["phase"] == "run" })
	note := fmt.Sprintf("of %d samples, %.2f s CPU", run.samples, float64(run.totalNS)/1e9)
	for _, b := range layerBuckets {
		rep.add("cpu."+b, "ratio", run.shares[b], run.samples, note)
	}
	for _, cb := range crossBuckets {
		rep.add("cpu."+cb.name, "ratio", run.shares[cb.name], run.samples, note)
	}
	for _, side := range sides {
		rep.add("cpu.side."+side, "ratio", run.shares["side."+side], run.samples, note)
	}
	pub := prof.split(func(s sample) bool { return s.labels["phase"] == "run" && s.labels["side"] == "publisher" })
	for _, b := range []string{"census", "analysis", "geo", "keccak"} {
		rep.add("cpu.publish."+b, "ratio", pub.shares[b], pub.samples, "share of publisher CPU")
	}
	setup := prof.split(func(s sample) bool { return s.labels["phase"] == "setup" })
	for _, b := range []string{"secp256k1", "keccak", "geo", "simnet"} {
		rep.add("cpu.setup."+b, "ratio", setup.shares[b], setup.samples, "share of set-up CPU")
	}
	rep.add("cpu.samples", "count", float64(run.samples), run.samples, "profile samples in the measured phase")
}

// --- profile.proto decoding ---

var errTruncated = errors.New("pprof: truncated protobuf")

// fields walks one protobuf message, calling fn per field with its
// varint value (wire types 0, 1, 5) or its bytes (wire type 2).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wt)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated integer field, packed (data) or not (v).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = make(map[uint64]uint64)   // function id → name string index
		locs    = make(map[uint64][]uint64) // location id → function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(data, func(num int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = repeated(s.locs, v, data)
				case 2:
					s.values, err = repeated(s.values, v, data)
				case 3:
					var kv [2]uint64
					err = fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
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
	p := &profile{samples: make([]sample, 0, len(samples))}
	for _, rs := range samples {
		s := sample{labels: make(map[string]string, len(rs.labels))}
		if len(rs.values) > 1 {
			s.count, s.ns = int64(rs.values[0]), int64(rs.values[1]) // [samples/count, cpu/nanoseconds]
		}
		for _, kv := range rs.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		for _, loc := range rs.locs {
			for _, fn := range locs[loc] {
				s.frames = append(s.frames, str(funcs[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}
