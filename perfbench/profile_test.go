package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

// spinForProfile burns CPU in its own frame; it keeps its state local
// so that race-detector builds do not move the samples into runtime
// frames.
func spinForProfile(d time.Duration) {
	var x uint64
	for begin := time.Now(); time.Since(begin) < d; {
		for i := uint64(0); i < 1e5; i++ {
			x = x*31 + i
		}
	}
	spinSink = x
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range samples {
		if s.count <= 0 || s.nanos <= 0 || len(s.stack) == 0 {
			t.Fatalf("degenerate sample %+v", s)
		}
		total += s.nanos
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.nanos
				break
			}
		}
	}
	if spin == 0 || spin < total/2 {
		t.Fatalf("spin loop got %v of %v CPU; want most of it", time.Duration(spin), time.Duration(total))
	}
}

func TestLayerOf(t *testing.T) {
	const pass = "sdpolicy/internal/sched.(*Scheduler).pass"
	for _, c := range []struct {
		stack  []string
		client bool
		want   string
	}{
		{[]string{"runtime.mallocgc", "sdpolicy/internal/sched.(*profile).insert", pass, "sdpolicy/internal/sim.(*Engine).RunCtx"}, false, "scheduler_pass"},
		{[]string{"sdpolicy/internal/sim.(*Engine).siftDown", "sdpolicy/internal/sched.RunContext"}, false, "event_loop"},
		{[]string{"encoding/json.(*encodeState).marshal", "sdpolicy/internal/serve.(*Server).appendResult"}, false, "encode"},
		{[]string{"syscall.write", "os.(*File).Write", "sdpolicy/internal/journal.(*Writer).write"}, false, "journal"},
		{[]string{"runtime.gcBgMarkWorker"}, false, "runtime"},
		{[]string{"encoding/json.Unmarshal", "main.(*fleet).campaignOn"}, false, "client"},
		{[]string{"sdpolicy/internal/sim.(*Engine).Step"}, true, "client"},
		{[]string{"slices.Sort", "main.calibrate.func1"}, true, ""},
	} {
		if got := layerOf(c.stack, c.client); got != c.want {
			t.Errorf("layerOf(%v, %v) = %q, want %q", c.stack, c.client, got, c.want)
		}
	}
}

func TestSubmissionOrder(t *testing.T) {
	a, b := submissionOrder(7, 3, 3*45, 45), submissionOrder(7, 3, 3*45, 45)
	seen := make([]int, 45)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed and rep gave different orders")
		}
		seen[a[i]]++
	}
	for i, k := range seen {
		if k != 3 {
			t.Fatalf("order submits point %d %d times, want 3", i, k)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.95: 4.8, 1: 5} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}
