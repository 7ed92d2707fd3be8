package sched

import (
	"math"

	"sdpolicy/internal/job"
	"sdpolicy/internal/model"
)

// mateSelection is the solution of the resource selection problem
// (Section 3.2): the mates that shrink, how many free nodes are mixed in
// (IncludeFreeNodes option), and the total Performance Impact.
type mateSelection struct {
	mates     []*rjob
	freeNodes int
	penalty   float64 // PI = sum of mate penalties (Eq. 1)
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
// guest until guestEnd. keepRate is the shrunk owner's rate, hoisted by
// the caller (it is constant across candidates of one selection).
func penalty(m *rjob, now, guestEnd int64, keepRate float64) float64 {
	newInc := model.MateIncrease(guestEnd-now, keepRate)
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
// changed.
func (s *Scheduler) syncPool(m *rjob) {
	in := m.poolIdx >= 0
	if want := s.poolable(m); want && !in {
		m.poolIdx = len(s.pool)
		s.pool = append(s.pool, m)
	} else if !want && in {
		s.dropPool(m)
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

// selectMates implements Listing 2's pick_mates: filter and sort the
// pool of shrinkable running jobs by penalty, then search combinations
// of at most MaxMates mates whose node counts sum to the request
// (constraint 3), each below the MAX_SLOWDOWN cut-off (constraint 2),
// minimising the Performance Impact (Eq. 1). Returns nil when no
// feasible combination exists. The returned selection is
// scheduler-owned scratch, valid until the next call.
func (s *Scheduler) selectMates(r *rjob, now, guestEnd int64) *mateSelection {
	W := r.j.ReqNodes
	maxSD := s.maxSD
	if s.cfg.Cutoff == CutoffStatic {
		if qsd, ok := s.cfg.QueueMaxSlowdown[r.j.Queue]; ok {
			maxSD = qsd // per-queue QoS cut-off (§4.1)
		}
	}
	keepRate := float64(s.mgr.OwnerKeepCores()) / float64(s.cl.Config().CoresPerNode())
	if s.cfg.Policy == Oversubscribe {
		keepRate *= 1 - s.cfg.OversubPenalty
	}
	// Stream the eligible mates straight into a bounded, sorted
	// candidate list: only the CandidateCap lowest penalties matter, so
	// a pool member worse than the current cut costs one comparison
	// instead of a slot in a full sort.
	nm := s.cfg.CandidateCap
	cands := s.search.cands[:0]
	for i, m := range s.pool {
		if len(m.nodes) > W {
			continue // a mate shrinks on all its nodes; larger mates overshoot
		}
		if !s.eligibleMate(m, r, now, guestEnd) {
			continue
		}
		p := penalty(m, now, guestEnd, keepRate)
		if p >= maxSD {
			continue // Eq. 2 cut-off
		}
		c := candidate{p: p, id: m.j.ID, width: len(m.nodes), idx: i}
		if len(cands) == nm && !candLess(c, cands[nm-1]) {
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
		}
		copy(cands[lo+1:], cands[lo:])
		cands[lo] = c
	}
	s.search.cands = cands
	if len(cands) == 0 {
		return nil
	}

	freeAvail := 0
	if s.cfg.IncludeFreeNodes {
		freeAvail = s.cl.FreeNodesWith(r.j.Features)
	}

	ms := &s.search
	ms.cands = cands
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
	ms.maxMates = s.cfg.MaxMates
	ms.cur = ms.cur[:0]
	ms.bestMates = ms.bestMates[:0]
	ms.bestFree = 0
	ms.bestPen = math.Inf(1)
	ms.dfs(0, W, 0)
	if math.IsInf(ms.bestPen, 1) {
		return nil
	}
	mates := s.selBuf.mates[:0]
	for _, i := range ms.bestMates {
		mates = append(mates, s.pool[i])
	}
	s.selBuf = mateSelection{mates: mates, freeNodes: ms.bestFree, penalty: ms.bestPen}
	return &s.selBuf
}
