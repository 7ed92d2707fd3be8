package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strings"
	"sync"
)

// Layer attribution. Every CPU sample of every process in the system
// is charged to one layer: walking its stack from the leaf, the first
// frame whose function belongs to a package in layerPackages decides,
// so a layer's time includes the runtime and standard-library work
// (allocation, sorting, syscalls) it calls. The kernel is split in
// two: samples under a scheduler pass are scheduler_pass, the rest of
// the kernel is event_loop. Samples with no layer frame at all —
// garbage collection, the Go scheduler — are runtime. In the benchmark
// process itself, work on behalf of the client (decoding and checking
// streamed results, and all of it when the system is a fleet) is
// client, so it never inflates a layer of the system under test, and
// the host calibration (calibrate.go) is no layer at all.
var layerPackages = []struct{ prefix, layer string }{
	{"sdpolicy/internal/workload.", "workload"},
	{"sdpolicy/internal/swf.", "workload"},
	{"sdpolicy/internal/apps.", "workload"},
	{"sdpolicy/internal/sim.", "event_loop"},
	{"sdpolicy/internal/sched.", "event_loop"},
	{"sdpolicy/internal/cluster.", "event_loop"},
	{"sdpolicy/internal/nodemgr.", "event_loop"},
	{"sdpolicy/internal/model.", "event_loop"},
	{"sdpolicy/internal/drom.", "event_loop"},
	{"sdpolicy/internal/job.", "event_loop"},
	{"sdpolicy/internal/metrics.", "metrics"},
	{"sdpolicy/internal/energy.", "metrics"},
	{"encoding/json.", "encode"},
	{"sdpolicy/internal/journal.", "journal"},
	{"net/http.", "http"},
	{"net.", "http"},
	{"net/textproto.", "http"},
	{"sdpolicy/internal/campaign.", "campaign"},
	{"sdpolicy/internal/lru.", "campaign"},
	{"sdpolicy.", "campaign"},
	{"sdpolicy/internal/serve.", "serve"},
	{"sdpolicy/internal/telemetry.", "serve"},
}

// schedulerPass is the function whose inclusive time is the
// scheduler_pass layer: profile build, cut-off and mate search.
const schedulerPass = "sdpolicy/internal/sched.(*Scheduler).pass"

// layers lists every layer in reporting order.
var layers = []string{
	"workload", "event_loop", "scheduler_pass", "metrics", "campaign",
	"encode", "journal", "http", "serve", "runtime", "client",
}

// layerOf names the layer of a sample's stack, or "" for calibration.
func layerOf(stack []string, clientOnly bool) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.calibrate") {
			return ""
		}
	}
	if clientOnly {
		return "client"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "client"
		}
	}
	for _, fn := range stack {
		for _, lp := range layerPackages {
			if !strings.HasPrefix(fn, lp.prefix) {
				continue
			}
			if lp.layer == "event_loop" {
				for _, caller := range stack {
					if caller == schedulerPass || strings.HasPrefix(caller, schedulerPass+".") {
						return "scheduler_pass"
					}
				}
			}
			return lp.layer
		}
	}
	return "runtime"
}

// layerProfile is the CPU time each layer spent during a window.
type layerProfile struct {
	nanos   map[string]int64
	samples int64
}

// profileSystem starts CPU profiles of the benchmark process and of
// every server in debug (their net/http/pprof listeners), each
// covering the next seconds. The returned function waits for them and
// attributes their samples to layers.
func profileSystem(ctx context.Context, debug []string, seconds int) (func() (layerProfile, error), error) {
	var self bytes.Buffer
	if err := pprof.StartCPUProfile(&self); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	remote := make([][]byte, len(debug))
	errs := make([]error, len(debug))
	var wg sync.WaitGroup
	for i, addr := range debug {
		wg.Add(1)
		go func() {
			defer wg.Done()
			remote[i], errs[i] = fetchProfile(ctx, addr, seconds)
		}()
	}
	return func() (layerProfile, error) {
		pprof.StopCPUProfile()
		wg.Wait()
		lp := layerProfile{nanos: make(map[string]int64)}
		if err := lp.add(self.Bytes(), len(debug) > 0); err != nil {
			return lp, fmt.Errorf("benchmark process profile: %w", err)
		}
		for i, data := range remote {
			if errs[i] != nil {
				return lp, errs[i]
			}
			if err := lp.add(data, false); err != nil {
				return lp, fmt.Errorf("profile of %s: %w", debug[i], err)
			}
		}
		return lp, nil
	}, nil
}

func fetchProfile(ctx context.Context, addr string, seconds int) ([]byte, error) {
	url := fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, seconds)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", url, err)
	}
	return data, nil
}

func (lp *layerProfile) merge(other layerProfile) {
	if lp.nanos == nil {
		lp.nanos = make(map[string]int64)
	}
	for l, ns := range other.nanos {
		lp.nanos[l] += ns
	}
	lp.samples += other.samples
}

func (lp *layerProfile) add(data []byte, clientOnly bool) error {
	samples, err := parseCPUProfile(data)
	if err != nil {
		return err
	}
	for _, s := range samples {
		if l := layerOf(s.stack, clientOnly); l != "" {
			lp.nanos[l] += s.nanos
			lp.samples += s.count
		}
	}
	return nil
}

// cpuSample is the CPU time of one sampled stack, leaf frame first.
type cpuSample struct {
	stack []string
	count int64
	nanos int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what layer attribution needs: each sample's
// function names (inlined frames expanded) and its sample count and
// CPU nanoseconds.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples     []rawSample
		sampleTypes []uint64                // string index of each value's type
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames   = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err = walkMessage(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkMessage(b, func(field int, v uint64, _ []byte) error {
				if field == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkMessage(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					return appendRepeated(&s.locs, v, b)
				case 2:
					return appendRepeated(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkMessage(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // line
					return walkMessage(b, func(field int, v uint64, _ []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkMessage(b, func(field int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = v
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
	countIdx, nanosIdx := -1, -1
	for i, s := range sampleTypes {
		if s < uint64(len(strs)) {
			switch strs[s] {
			case "samples":
				countIdx = i
			case "cpu":
				nanosIdx = i
			}
		}
	}
	if countIdx < 0 || nanosIdx < 0 {
		return nil, errors.New("not a CPU profile: no samples/cpu value types")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) != len(sampleTypes) {
			return nil, errors.New("sample value count does not match sample types")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if name, ok := funcNames[fn]; ok && name < uint64(len(strs)) {
					stack = append(stack, strs[name])
				}
			}
		}
		out = append(out, cpuSample{stack: stack, count: int64(s.values[countIdx]), nanos: int64(s.values[nanosIdx])})
	}
	return out, nil
}

// walkMessage calls fn for every field of a protobuf message: v holds
// a varint or fixed-width value, b a length-delimited payload.
func walkMessage(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("malformed protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("malformed protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated protobuf fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("malformed protobuf length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated protobuf fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field in either encoding:
// one value per field (b nil) or packed into a length-delimited b.
func appendRepeated(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("malformed packed varint")
		}
		*dst, b = append(*dst, x), b[n:]
	}
	return nil
}
