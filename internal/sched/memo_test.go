package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sdpolicy/internal/job"
	"sdpolicy/internal/sim"
	"sdpolicy/internal/workload"
)

// memoState runs the jobs on a small machine up to the horizon (at
// least 1: horizon 0 means none) and returns the scheduler there.
func memoState(t *testing.T, cfg Config, nodes int, jobs []job.Job, horizon int64) *Scheduler {
	t.Helper()
	spec := tiny(nodes, jobs)
	eng := sim.NewEngine()
	s := NewScheduler(eng, cfg, spec.Cluster)
	for i := range spec.Jobs {
		if err := s.Submit(&spec.Jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	advance(s, horizon)
	return s
}

// advance fires every event up to the horizon.
func advance(s *Scheduler, horizon int64) {
	s.eng.SetHorizon(horizon)
	s.eng.Run()
}

// memoGuest is a malleable job of the given width asking for mates. It
// is never queued: the tests call selectMates for it directly.
func memoGuest(s *Scheduler, nodes int) *rjob {
	j := mj(100, 0, 100, 100, nodes, job.Malleable)
	return &rjob{j: &j, poolIdx: -1, mallRun: s.guestRun(&j)}
}

// selectOrNot runs one selection and checks whether it found mates and
// whether the memo answered it.
func selectOrNot(t *testing.T, s *Scheduler, g *rjob, wantMates, wantHit bool) *mateSelection {
	t.Helper()
	hits := s.memoHits
	sel := s.selectMates(g, s.eng.Now())
	if (sel != nil) != wantMates {
		t.Fatalf("t=%d: selection found mates %v, want %v", s.eng.Now(), sel != nil, wantMates)
	}
	if hit := s.memoHits > hits; hit != wantHit {
		t.Fatalf("t=%d: memo hit %v, want %v", s.eng.Now(), hit, wantHit)
	}
	return sel
}

// TestMemoRescansWhenPoolGrows: a 4-node guest fails against a pool of
// one 2-node mate, and the memo answers a repeat. Once a second 2-node
// job starts, the pool generation moves, so the next selection scans
// and finds both mates.
func TestMemoRescansWhenPoolGrows(t *testing.T) {
	s := memoState(t, sdConfig(), 4, []job.Job{
		mj(1, 1, 10000, 10000, 2, job.Malleable),
		mj(2, 10, 10000, 10000, 2, job.Malleable),
	}, 1)
	g := memoGuest(s, 4)
	selectOrNot(t, s, g, false, false)
	if !g.failed {
		t.Fatal("the failure was not remembered")
	}
	selectOrNot(t, s, g, false, true)
	advance(s, 10)
	if len(s.pool) != 2 {
		t.Fatalf("pool holds %d jobs at t=10, want 2", len(s.pool))
	}
	if sel := selectOrNot(t, s, g, true, false); len(sel.mates) != 2 {
		t.Fatalf("%d mates, want 2", len(sel.mates))
	}
}

// TestMemoSkipsTruncatedFailure: under CandidateCap 1 the 1-node job X
// (lower penalty: longer request) holds the cap, so the 2-node job Y,
// which alone fits the 2-node guest, is dropped and the selection
// fails. That failure is not remembered: once X ends, the pool has only
// shrunk, and a selection finds Y.
func TestMemoSkipsTruncatedFailure(t *testing.T) {
	cfg := sdConfig()
	cfg.CandidateCap = 1
	s := memoState(t, cfg, 3, []job.Job{
		mj(1, 1, 20000, 500, 1, job.Malleable),
		mj(2, 1, 10000, 10000, 2, job.Malleable),
	}, 1)
	g := memoGuest(s, 2)
	selectOrNot(t, s, g, false, false)
	if g.failed {
		t.Fatal("a failure that truncated its candidates was remembered")
	}
	advance(s, 501)
	if len(s.pool) != 1 || s.pool[0].j.ID != 2 {
		t.Fatalf("pool at t=501 is %d jobs, want job 2 alone", len(s.pool))
	}
	if sel := selectOrNot(t, s, g, true, false); sel.mates[0].j.ID != 2 {
		t.Fatalf("mate %d, want job 2", sel.mates[0].j.ID)
	}
}

// TestMemoRescansWhenNodesFree: under IncludeFreeNodes a 2-node guest
// fails against one 1-node mate with no node free, and the memo
// answers a repeat. A rigid job, never in the pool, then ends and frees
// two nodes without moving the pool generation: the next selection
// scans and mixes a free node in.
func TestMemoRescansWhenNodesFree(t *testing.T) {
	cfg := sdConfig()
	cfg.IncludeFreeNodes = true
	s := memoState(t, cfg, 3, []job.Job{
		mj(1, 1, 10000, 10000, 1, job.Malleable),
		mj(2, 1, 500, 500, 2, job.Rigid),
	}, 1)
	g := memoGuest(s, 2)
	gen := s.poolGen
	selectOrNot(t, s, g, false, false)
	selectOrNot(t, s, g, false, true)
	advance(s, 501)
	if s.cl.FreeNodes() != 2 || s.poolGen != gen {
		t.Fatalf("t=501: %d free nodes, pool generation %d → %d; want 2 free, unchanged",
			s.cl.FreeNodes(), gen, s.poolGen)
	}
	if sel := selectOrNot(t, s, g, true, false); sel.freeNodes != 1 {
		t.Fatalf("%d free nodes mixed in, want 1", sel.freeNodes)
	}
}

// TestMemoRescansWhenCutoffRises: with a dynamic cut-off below the only
// mate's penalty (1.1) the selection fails, and the memo answers it
// again at the same or a lower cut-off. A higher one makes the next
// selection scan, and the mate passes.
func TestMemoRescansWhenCutoffRises(t *testing.T) {
	cfg := sdConfig()
	cfg.Cutoff = CutoffDynAvg
	s := memoState(t, cfg, 2, []job.Job{
		mj(1, 1, 1000, 1000, 2, job.Malleable),
	}, 1)
	g := memoGuest(s, 2)
	// The pass sets the cut-off in force from dynamicCutoff; these
	// values stand for its results.
	s.maxSD = 1.05
	selectOrNot(t, s, g, false, false)
	selectOrNot(t, s, g, false, true)
	s.maxSD = 1.01
	selectOrNot(t, s, g, false, true)
	s.maxSD = 1.2
	selectOrNot(t, s, g, true, false)
}

// TestMemoAtScale pins WL4 under SD with MAXSD 10 at scale 0.1, sdsim's
// example point: the decisions (the digest and pass count sdsim
// prints), and how many selections ran and how many the memo answered.
// Its pools average about 26 members, more than the golden points or
// randomSpec reach.
func TestMemoAtScale(t *testing.T) {
	cfg, err := Options{Policy: "sd", MaxSlowdown: 10}.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(workload.WL4(0.1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res.Report.Results)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	const digest = "aaf91e423ff79d69033e2c38d72fc752069d37ee716cc7bebf238662310d7e19"
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Errorf("digest %s, want %s", got, digest)
	}
	if res.Passes != 38150 || res.Selections != 1279842 || res.MemoHits != 652414 {
		t.Errorf("%d passes, %d selections, %d memo hits; want 38150, 1279842, 652414",
			res.Passes, res.Selections, res.MemoHits)
	}
}
