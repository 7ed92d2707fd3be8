package sched

import (
	"context"
	"fmt"
	"sync"

	"sdpolicy/internal/drom"
	"sdpolicy/internal/metrics"
	"sdpolicy/internal/sim"
	"sdpolicy/internal/workload"
)

// enginePool recycles event engines across runs: a campaign sweep runs
// thousands of simulations back to back, and the engine's slab, heap and
// free-list arrays are sized by the workload's peak pending events —
// reusing them removes the dominant per-point warm-up allocations.
// Engines are Reset before going back so pooled entries pin no scheduler
// memory through event callbacks.
var enginePool = sync.Pool{New: func() any { return sim.NewEngine() }}

// Result is the outcome of one simulation run.
type Result struct {
	Workload        string
	Policy          PolicyKind
	Report          metrics.Report
	EnergyJoules    float64
	DROM            drom.Stats
	MalleableStarts int
	Mates           int
	Passes          uint64
	Events          uint64
	// Selections counts the mate selections the passes asked for, and
	// MemoHits those a remembered failure answered without a scan.
	Selections uint64
	MemoHits   uint64
}

// Run simulates the workload under the configuration and returns the
// completion report. It errors on invalid inputs or if any job fails to
// complete (which would indicate a scheduler bug). Run is not
// cancellable; use RunContext when the caller may abandon the
// simulation mid-flight.
func Run(spec workload.Spec, cfg Config) (*Result, error) {
	return RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with mid-simulation cancellation: the event loop
// checkpoints ctx every cfg.CheckpointEvents events (0 selects
// sim.DefaultCheckpoint) and, once the context is cancelled, abandons
// the partial simulation and returns an error wrapping ctx.Err().
// Cancellation latency is bounded by the time to process one
// checkpoint interval — milliseconds even on the full-scale workloads
// — rather than by the remaining runtime of the whole simulation.
func RunContext(ctx context.Context, spec workload.Spec, cfg Config) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := enginePool.Get().(*sim.Engine)
	defer func() {
		eng.Reset()
		enginePool.Put(eng)
	}()
	s := NewScheduler(eng, cfg, spec.Cluster)
	for nd, feats := range spec.NodeFeatures {
		s.cl.SetNodeFeatures(nd, feats...)
	}
	for i := range spec.Jobs {
		if err := s.Submit(&spec.Jobs[i]); err != nil {
			return nil, err
		}
	}
	if err := eng.RunCtx(ctx, cfg.CheckpointEvents); err != nil {
		return nil, fmt.Errorf("sched: simulation aborted after %d events at t=%d: %w",
			eng.Processed(), eng.Now(), err)
	}
	if len(s.results) != len(spec.Jobs) {
		return nil, fmt.Errorf("sched: %d of %d jobs completed — scheduler deadlock",
			len(s.results), len(spec.Jobs))
	}
	if len(s.queue) != 0 || len(s.running) != 0 {
		return nil, fmt.Errorf("sched: residual state: %d queued, %d running",
			len(s.queue), len(s.running))
	}
	if err := s.cl.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sched: cluster state corrupt after run: %v", err)
	}
	rep := metrics.Report{Results: s.results}
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("sched: inconsistent results: %v", err)
	}
	return &Result{
		Workload:        spec.Name,
		Policy:          cfg.Policy,
		Report:          rep,
		EnergyJoules:    s.meter.Joules(),
		DROM:            s.reg.Stats(),
		MalleableStarts: rep.MalleableStarts(),
		Mates:           rep.Mates(),
		Passes:          s.passes,
		Events:          eng.Processed(),
		Selections:      s.selections,
		MemoHits:        s.memoHits,
	}, nil
}
