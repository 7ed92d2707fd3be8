package main

import (
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// Host-speed calibration. The benchmark's host is shared: its speed
// drifts by tens of percent over tens of seconds as neighbours load it,
// which no window length a run can afford averages away. So the
// benchmark times a fixed reference task, which uses none of the
// repository's code, between batches of campaigns, and reports every
// end-to-end time scaled to reference speed: the measured time times
// calibrationRef over the reference task's time around it. Raw times
// are reported with the per-layer metrics. The reference task runs
// while the system is idle between campaigns, so CPU the system burns
// when idle slows it and is partly scaled away; the per-layer profile,
// which covers the whole window, still shows such work.
const calibrationRef = 50 * time.Millisecond

// calibrationSink keeps the reference task's result alive.
var calibrationSink int64

// calibrate times the reference task: sorting and hashing cache-sized
// slices of random integers, with their allocation, on simWorkers
// goroutines at once — the same CPU, cache and allocator mix the
// simulator loads, on as many cores.
func calibrate() time.Duration {
	begin := time.Now()
	sums := make([]int64, simWorkers)
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(1, uint64(g)))
			for k := 0; k < 12; k++ {
				xs := make([]int64, 1<<15)
				for i := range xs {
					xs[i] = r.Int64()
				}
				slices.Sort(xs)
				counts := make(map[int64]int64, 4096)
				for i, x := range xs {
					counts[x&4095] += int64(i)
				}
				sums[g] += int64(len(counts)) + xs[len(xs)/2]
			}
		}()
	}
	wg.Wait()
	for _, s := range sums {
		calibrationSink += s
	}
	return time.Since(begin)
}

// speedFactor converts times measured between two calibrations to
// reference speed.
func speedFactor(before, after time.Duration) float64 {
	return float64(calibrationRef) / (float64(before+after) / 2)
}
