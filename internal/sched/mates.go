package sched

import (
	"math"

	"sdpolicy/internal/job"
	"sdpolicy/internal/model"
)

// mateSelection is the solution of the resource selection problem
// (Section 3.2): the mates that shrink, how many free nodes are mixed in
// (IncludeFreeNodes option), the total Performance Impact, and the
// increase hosting the guest adds to each mate.
type mateSelection struct {
	mates     []*rjob
	freeNodes int
	penalty   float64 // PI = sum of mate penalties (Eq. 1)
	increase  float64
}

// candidate is a mate with its Eq. 4 penalty, its node count and its
// position in Scheduler.pool. It holds no pointer, so shifting the
// top-K list is a plain memmove.
type candidate struct {
	p     float64
	id    job.ID
	width int
	idx   int
}

// candLess is the deterministic candidate order: penalty ascending with
// the (unique) job id as tie-break — a strict total order, so the
// lowest-CandidateCap set and its sorted layout are unambiguous, and
// independent of the order the pool is scanned in.
func candLess(a, b candidate) bool {
	if a.p != b.p {
		return a.p < b.p
	}
	return a.id < b.id
}

// penalty evaluates Eq. 4 for a prospective mate: the predicted slowdown
// (wait + increase + req_time)/req_time after committing to host the
// guest. newInc is the increase hosting it adds, hoisted by the caller
// (it is the same for every candidate of one selection).
func penalty(m *rjob, newInc float64) float64 {
	wait := float64(m.start - m.j.Submit)
	req := float64(m.j.ReqTime)
	return (wait + m.increase + newInc + req) / req
}

// poolable is the guest-independent half of the mate-eligibility
// check: m can shrink under the policy, neither hosts nor is hosted,
// holds all its nodes at full cores, and keeps at least one core per
// task once shrunk. Scheduler.pool holds exactly the running jobs that
// pass it.
func (s *Scheduler) poolable(m *rjob) bool {
	switch s.cfg.Policy {
	case SDPolicy:
		if m.j.Kind != job.Malleable {
			return false // only malleable jobs can shrink
		}
	case Oversubscribe: // oversubscription shares blindly
	default:
		return false // static backfill never co-schedules
	}
	return m.guest == nil && len(m.hosts) == 0 && m.allFull &&
		s.mgr.OwnerKeepCores() >= m.j.TasksPerNode
}

// syncPool re-checks m's pool membership after a field poolable reads
// changed. Leaving m in the pool, new or re-synced, starts a new pool
// generation: its end or its penalty may have moved.
func (s *Scheduler) syncPool(m *rjob) {
	in := m.poolIdx >= 0
	want := s.poolable(m)
	if want && !in {
		m.poolIdx = len(s.pool)
		s.pool = append(s.pool, m)
	} else if !want && in {
		s.dropPool(m)
	}
	if want {
		s.poolGen++
	}
}

// dropPool swap-removes a pool member.
func (s *Scheduler) dropPool(m *rjob) {
	last := len(s.pool) - 1
	moved := s.pool[last]
	s.pool[m.poolIdx] = moved
	moved.poolIdx = m.poolIdx
	s.pool[last] = nil
	s.pool = s.pool[:last]
	m.poolIdx = -1
}

// eligibleMate is the guest-dependent half of the mate-eligibility
// check for a pool member m: long enough that the guest g ending at
// guestEnd finishes inside its allocation (Section 3.2.4 constraint),
// and on nodes satisfying the guest's feature constraints.
func (s *Scheduler) eligibleMate(m, g *rjob, now, guestEnd int64) bool {
	if m.predEndAt(now) < guestEnd {
		return false
	}
	if len(g.j.Features) > 0 {
		for _, nd := range m.nodes {
			if !s.cl.NodeHasFeatures(nd, g.j.Features) {
				return false
			}
		}
	}
	return true
}

// mateSearch carries the state of the combination search so the
// recursion needs no closure and its slices survive across passes as
// scheduler-owned scratch.
type mateSearch struct {
	cands     []candidate
	sufWidth  []int // sufWidth[i] = max node count among cands[i:]
	freeAvail int
	maxMates  int
	cur       []int // pool indices of the combination being extended
	bestMates []int
	bestFree  int
	bestPen   float64
}

// dfs enumerates mate combinations in penalty order with two exact
// prunes. Both preserve the search result bit-for-bit: a solution is
// recorded only on strict penalty improvement, so subtrees whose
// cheapest possible extension already reaches bestPen cannot change the
// outcome.
func (ms *mateSearch) dfs(start, needed int, pen float64) {
	if pen >= ms.bestPen {
		return
	}
	if len(ms.cur) > 0 && (needed == 0 || needed <= ms.freeAvail) {
		ms.bestMates = append(ms.bestMates[:0], ms.cur...)
		ms.bestFree = needed
		ms.bestPen = pen
		if needed == 0 {
			return
		}
		// A free-node completion found; adding mates only raises the
		// penalty, but an exact mate fit deeper may still use fewer
		// free nodes at equal penalty — the paper minimises PI, so
		// stop here.
		return
	}
	slots := ms.maxMates - len(ms.cur)
	if slots == 0 {
		return
	}
	for i := start; i < len(ms.cands); i++ {
		// Candidates are sorted by penalty ascending: once the cheapest
		// remaining one cannot beat the incumbent, none can.
		if pen+ms.cands[i].p >= ms.bestPen {
			break
		}
		// Width bound: even taking the widest remaining candidates in
		// every open slot cannot reach the requested node count.
		if needed > ms.freeAvail+slots*ms.sufWidth[i] {
			break
		}
		w := ms.cands[i].width
		if w > needed {
			continue
		}
		ms.cur = append(ms.cur, ms.cands[i].idx)
		ms.dfs(i+1, needed-w, pen+ms.cands[i].p)
		ms.cur = ms.cur[:len(ms.cur)-1]
	}
}

// selectMates implements Listing 2's pick_mates for a guest r that
// would start now and run r.mallRun: filter and sort the pool of
// shrinkable running jobs by penalty, then search combinations of at
// most MaxMates mates whose node counts sum to the request (constraint
// 3), each below the MAX_SLOWDOWN cut-off (constraint 2), minimising
// the Performance Impact (Eq. 1). Returns nil when no feasible
// combination exists. The returned selection is scheduler-owned
// scratch, valid until the next call.
//
// A failure is remembered on r, and a later selection for r fails
// without scanning while the pool generation is the same and neither
// the cut-off in force nor the free nodes it could mix in are higher.
// That is exact: with no pool member added or re-synced the pool has
// only shrunk, and each member's penalty is fixed (its wait, committed
// increase and request are, and newInc is fixed per guest). With ends
// pinned, a member's end reaching now+mallRun only gets harder as now
// grows. A lower cut-off or fewer free nodes only remove options, and
// the search below with no incumbent is a complete feasibility search.
// A failure that dropped an eligible candidate at CandidateCap is not
// remembered: that candidate may make the cut once others leave.
func (s *Scheduler) selectMates(r *rjob, now int64) *mateSelection {
	s.selections++
	W := r.j.ReqNodes
	maxSD := s.maxSD
	if s.cfg.Cutoff == CutoffStatic {
		if qsd, ok := s.cfg.QueueMaxSlowdown[r.j.Queue]; ok {
			maxSD = qsd // per-queue QoS cut-off (§4.1)
		}
	}
	freeAvail := 0
	if s.cfg.IncludeFreeNodes {
		freeAvail = s.cl.FreeNodesWith(r.j.Features)
	}
	if r.failed && r.failGen == s.poolGen && maxSD <= r.failSD && freeAvail <= r.failFree {
		s.memoHits++
		return nil
	}
	guestEnd := now + r.mallRun
	keepRate := float64(s.mgr.OwnerKeepCores()) / float64(s.cl.Config().CoresPerNode())
	if s.cfg.Policy == Oversubscribe {
		keepRate *= 1 - s.cfg.OversubPenalty
	}
	newInc := model.MateIncrease(r.mallRun, keepRate)
	// Stream the eligible mates straight into a bounded, sorted
	// candidate list: only the CandidateCap lowest penalties matter, so
	// a pool member worse than the current cut costs one comparison
	// instead of a slot in a full sort.
	nm := s.cfg.CandidateCap
	cands := s.search.cands[:0]
	truncated := false
	for i, m := range s.pool {
		if len(m.nodes) > W {
			continue // a mate shrinks on all its nodes; larger mates overshoot
		}
		if !s.eligibleMate(m, r, now, guestEnd) {
			continue
		}
		p := penalty(m, newInc)
		if p >= maxSD {
			continue // Eq. 2 cut-off
		}
		c := candidate{p: p, id: m.j.ID, width: len(m.nodes), idx: i}
		if len(cands) == nm && !candLess(c, cands[nm-1]) {
			truncated = true
			continue
		}
		lo, hi := 0, len(cands)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if candLess(c, cands[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if len(cands) < nm {
			cands = append(cands, candidate{})
		} else {
			truncated = true // the last candidate drops out
		}
		copy(cands[lo+1:], cands[lo:])
		cands[lo] = c
	}
	s.search.cands = cands
	if len(cands) == 0 || !s.search.feasible(W, freeAvail, s.cfg.MaxMates) {
		if !truncated {
			r.failed, r.failGen, r.failSD, r.failFree = true, s.poolGen, maxSD, freeAvail
		}
		return nil
	}
	mates := s.selBuf.mates[:0]
	for _, i := range s.search.bestMates {
		mates = append(mates, s.pool[i])
	}
	s.selBuf = mateSelection{mates: mates, freeNodes: s.search.bestFree, penalty: s.search.bestPen, increase: newInc}
	return &s.selBuf
}

// feasible runs the combination search over the sorted candidates for
// a request of W nodes and reports whether it found a selection, left
// in bestMates, bestFree and bestPen.
func (ms *mateSearch) feasible(W, freeAvail, maxMates int) bool {
	cands := ms.cands
	if cap(ms.sufWidth) < len(cands) {
		ms.sufWidth = make([]int, len(cands))
	}
	ms.sufWidth = ms.sufWidth[:len(cands)]
	for i := len(cands) - 1; i >= 0; i-- {
		w := cands[i].width
		if i+1 < len(cands) && ms.sufWidth[i+1] > w {
			w = ms.sufWidth[i+1]
		}
		ms.sufWidth[i] = w
	}
	ms.freeAvail = freeAvail
	ms.maxMates = maxMates
	ms.cur = ms.cur[:0]
	ms.bestMates = ms.bestMates[:0]
	ms.bestFree = 0
	ms.bestPen = math.Inf(1)
	ms.dfs(0, W, 0)
	return !math.IsInf(ms.bestPen, 1)
}
