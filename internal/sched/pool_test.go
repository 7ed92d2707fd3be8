package sched

import (
	"fmt"
	"math/rand"
	"slices"
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

// checkReleases verifies the maintained node releases against a
// from-scratch computation: each node's release is the latest pinned
// end among the jobs the cluster lists on it (read from the
// allocations, not from the resident slots), the release set holds
// exactly the multiset of nonzero releases, and the pass profile built
// from the set equals a profile built over the from-scratch list.
func checkReleases(s *Scheduler, now int64) error {
	nodes := s.cl.Config().Nodes
	var rels []int64
	count := map[int64]int{}
	for nd := 0; nd < nodes; nd++ {
		var want int64
		for _, a := range s.cl.Allocs(nd) {
			r, ok := s.running[a.Job]
			if !ok {
				return fmt.Errorf("node %d holds job %d, which is not running", nd, a.Job)
			}
			want = max(want, r.end)
		}
		if s.rel[nd] != want {
			return fmt.Errorf("node %d: release %d, latest resident end %d", nd, s.rel[nd], want)
		}
		if want > 0 {
			rels = append(rels, want)
			count[want]++
		}
	}
	if len(rels) != s.cl.BusyNodes() {
		return fmt.Errorf("%d nodes have a release, %d are busy", len(rels), s.cl.BusyNodes())
	}
	rs := s.rels
	if len(rs.times) != len(count) || len(rs.counts) != len(rs.times) {
		return fmt.Errorf("release set has %d times and %d counts, want %d distinct releases",
			len(rs.times), len(rs.counts), len(count))
	}
	for i, t := range rs.times {
		if i > 0 && t <= rs.times[i-1] {
			return fmt.Errorf("release set not strictly ascending at %d: %v", i, rs.times)
		}
		if rs.counts[i] != count[t] {
			return fmt.Errorf("release %d: set counts %d nodes, %d release then", t, rs.counts[i], count[t])
		}
	}
	got := s.buildProfile(now)
	want := newProfile(now, nodes, s.cl.FreeNodes(), rels)
	if got.totalNodes != want.totalNodes || got.now != want.now || got.availNow != want.availNow ||
		!slices.Equal(got.times, want.times) || !slices.Equal(got.deltas, want.deltas) {
		return fmt.Errorf("pass profile %+v, from scratch %+v", *got, *want)
	}
	return nil
}

// TestPoolInvariant steps random workloads one event at a time under
// static backfill and every co-scheduling policy, and checks the pool
// and the node releases after each event. Outcome oracles cannot see a
// stale pool member that never wins a selection, or a stale release
// that never decides an estimate; this test can.
func TestPoolInvariant(t *testing.T) {
	free := sdConfig()
	free.IncludeFreeNodes = true
	cfgs := []struct {
		name string
		cfg  Config
	}{{"static", Defaults()}, {"sd", sdConfig()}, {"sd-free", free}, {"oversub", oversubConfig(0.15)}}
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
				err := checkPool(s)
				if err == nil {
					err = checkReleases(s, eng.Now())
				}
				if err != nil {
					t.Fatalf("trial %d %s, event %d at t=%d: %v",
						trial, c.name, eng.Processed(), eng.Now(), err)
				}
			}
			if len(s.pool) != 0 || len(s.rels.times) != 0 || len(s.results) != len(spec.Jobs) {
				t.Fatalf("trial %d %s: %d pool members, %d release times and %d of %d jobs done at the end",
					trial, c.name, len(s.pool), len(s.rels.times), len(s.results), len(spec.Jobs))
			}
		}
	}
}
