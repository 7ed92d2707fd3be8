package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"sdpolicy/internal/job"
	"sdpolicy/internal/sim"
)

// checkPool verifies the eligible-mate pool against a predicate
// recomputed from scratch: the pool holds exactly the running jobs that
// can shrink under the policy, neither host nor are hosted, hold every
// node at full cores (read from the node manager, not the allFull
// flag) and keep one core per task once shrunk; and every member's
// back-index points at its own slot.
func checkPool(s *Scheduler) error {
	full := s.cl.Config().CoresPerNode()
	members := 0
	for _, r := range s.runList {
		want := r.guest == nil && len(r.hosts) == 0 &&
			s.mgr.OwnerKeepCores() >= r.j.TasksPerNode
		switch s.cfg.Policy {
		case SDPolicy:
			want = want && r.j.Kind == job.Malleable
		case Oversubscribe:
		default:
			want = false
		}
		for _, c := range s.mgr.Shares(r.j.ID, r.nodes) {
			if c != full {
				want = false
			}
		}
		if in := r.poolIdx >= 0; in != want {
			return fmt.Errorf("job %d: in pool %v, predicate %v", r.j.ID, in, want)
		}
		if want {
			members++
		}
	}
	if len(s.pool) != members {
		return fmt.Errorf("pool holds %d jobs, %d running jobs qualify", len(s.pool), members)
	}
	for i, m := range s.pool {
		if m.poolIdx != i {
			return fmt.Errorf("pool[%d] is job %d with back-index %d", i, m.j.ID, m.poolIdx)
		}
		if s.running[m.j.ID] != m {
			return fmt.Errorf("pool[%d] is job %d, which is not running", i, m.j.ID)
		}
	}
	return nil
}

// TestPoolInvariant steps random workloads one event at a time under
// every co-scheduling policy and checks the pool after each event.
// Outcome oracles cannot see a stale pool member that never wins a
// selection; this test can.
func TestPoolInvariant(t *testing.T) {
	free := sdConfig()
	free.IncludeFreeNodes = true
	cfgs := []struct {
		name string
		cfg  Config
	}{{"sd", sdConfig()}, {"sd-free", free}, {"oversub", oversubConfig(0.15)}}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		spec := randomSpec(rng)
		for _, c := range cfgs {
			eng := sim.NewEngine()
			s := NewScheduler(eng, c.cfg, spec.Cluster)
			for i := range spec.Jobs {
				if err := s.Submit(&spec.Jobs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for eng.Step() {
				if err := checkPool(s); err != nil {
					t.Fatalf("trial %d %s, event %d at t=%d: %v",
						trial, c.name, eng.Processed(), eng.Now(), err)
				}
			}
			if len(s.pool) != 0 || len(s.results) != len(spec.Jobs) {
				t.Fatalf("trial %d %s: %d pool members and %d of %d jobs done at the end",
					trial, c.name, len(s.pool), len(s.results), len(spec.Jobs))
			}
		}
	}
}
