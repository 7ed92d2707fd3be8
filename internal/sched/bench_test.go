package sched

import (
	"testing"

	"sdpolicy/internal/sim"
	"sdpolicy/internal/workload"
)

// midSim builds a scheduler frozen mid-simulation: WL4 is driven up to
// the horizon, leaving a populated running set and a backlog in the
// queue — the state every per-pass component operates on. The returned
// scheduler must not be mutated by the benchmark body (the component
// benchmarks below only exercise read/scratch paths).
func midSim(b *testing.B, cfg Config) *Scheduler {
	b.Helper()
	spec := workload.WL4(0.05, 1)
	eng := sim.NewEngine()
	s := NewScheduler(eng, cfg, spec.Cluster)
	for i := range spec.Jobs {
		if err := s.Submit(&spec.Jobs[i]); err != nil {
			b.Fatal(err)
		}
	}
	// Stop roughly mid-trace: far enough in that the machine is busy,
	// early enough that a deep queue remains.
	eng.SetHorizon(spec.Jobs[len(spec.Jobs)/2].Submit)
	eng.Run()
	if len(s.runList) == 0 || len(s.queue) == 0 {
		b.Fatalf("mid-state degenerate: %d running, %d queued", len(s.runList), len(s.queue))
	}
	return s
}

// BenchmarkBuildProfile measures what the head of every scheduling pass
// pays for its availability profile: an O(B) copy of the maintained
// release set, B distinct release times, folding past releases into
// now+1. Target: zero allocations amortised — the breakpoint arrays are
// scheduler-owned scratch.
func BenchmarkBuildProfile(b *testing.B) {
	s := midSim(b, sdConfig())
	now := s.eng.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.buildProfile(now)
	}
}

// BenchmarkDynamicCutoff measures the feedback cut-off computation
// (predicted slowdown of every running job + percentile).
func BenchmarkDynamicCutoff(b *testing.B) {
	cfg := sdConfig()
	cfg.Cutoff = CutoffDynP70
	s := midSim(b, cfg)
	now := s.eng.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.dynamicCutoff(now)
	}
}

// BenchmarkSchedulerPass measures a full scheduling pass — cut-off,
// profile build, backfill walk with malleable trials — over the frozen
// mid-trace state. At the horizon some nodes are free, but no queued
// job fits on them or finds mates, so the pass starts nothing: it
// leaves the queue and running set unchanged and is safe to repeat.
// With a node free, every examined job is estimated and reserved; the
// deferred estimates of a full machine are not measured here.
func BenchmarkSchedulerPass(b *testing.B) {
	cfg := sdConfig()
	cfg.Cutoff = CutoffDynAvg
	s := midSim(b, cfg)
	queued, running := len(s.queue), len(s.runList)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pass()
	}
	b.StopTimer()
	if len(s.queue) != queued || len(s.runList) != running {
		b.Fatalf("pass mutated state: queue %d->%d, running %d->%d",
			queued, len(s.queue), running, len(s.runList))
	}
}
