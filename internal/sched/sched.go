package sched

import (
	"fmt"
	"math"

	"sdpolicy/internal/cluster"
	"sdpolicy/internal/drom"
	"sdpolicy/internal/energy"
	"sdpolicy/internal/job"
	"sdpolicy/internal/metrics"
	"sdpolicy/internal/model"
	"sdpolicy/internal/nodemgr"
	"sdpolicy/internal/sim"
	"sdpolicy/internal/stats"
)

// rjob is the scheduler's live view of one job.
type rjob struct {
	j     *job.Job
	nodes []int
	start int64
	// prog tracks true progress (ActualTime of work) under the
	// configured runtime model: it drives the real completion event.
	prog *model.Progress
	// pred tracks requested-time progress under the worst-case model:
	// it drives every scheduler prediction (Section 3.4: "in the
	// SD-Policy case, we use the worst case model").
	pred *model.Progress
	// end is the predicted completion, pinned by setRates when the
	// rate changes (math.MaxInt64 at rate 0). Read it with predEndAt.
	end     int64
	endEv   sim.Event
	runIdx  int // position in Scheduler.runList
	poolIdx int // position in Scheduler.pool, or -1 outside it
	// allFull mirrors "every node share equals the full core count",
	// refreshed by setRates — shares never change without a rate
	// refresh, so the flag is exact. It replaces the per-candidate
	// share scan of the mate-eligibility check.
	allFull bool
	// malleability roles
	guest     *rjob   // guest currently hosted (this job is its mate)
	hosts     []*rjob // mates hosting this job (this job is a guest)
	mallStart bool
	everMate  bool
	// committed predicted extra runtime, the "increase" history feeding
	// Eq. 4 penalties.
	increase float64
	speedup  model.SpeedupFn // per-app curve, only under model.App
}

// predEndAt returns the predicted completion time read at now: the
// pinned end, or now once that has passed (the job overran its
// worst-case prediction).
func (r *rjob) predEndAt(now int64) int64 { return max(r.end, now) }

// Scheduler runs one policy over one workload.
type Scheduler struct {
	cfg Config
	eng *sim.Engine
	cl  *cluster.Cluster
	reg *drom.Registry
	mgr *nodemgr.Manager

	queue   []*rjob
	running map[job.ID]*rjob
	// runList mirrors `running` as a slice so the dynamic cut-off's
	// per-pass iteration avoids map-range overhead. Order is begin-order
	// with swap-removal on finish; the cut-off's reductions (sum,
	// percentile) are order-independent.
	runList []*rjob
	// pool holds the running jobs that pass poolable, the guest-
	// independent half of the mate-eligibility check: the only jobs a
	// mate selection can pick. Swap-removal like runList; selectMates
	// does not depend on its order (candLess is a strict total order).
	pool    []*rjob
	results []metrics.JobResult
	meter   *energy.Meter

	passPending bool
	passFn      func()  // cached method value, scheduled by requestPass
	maxSD       float64 // effective cut-off for the current pass
	// reservations held so far in the current pass, and the kept jobs
	// whose estimate and reservation wait on a successful mate
	// selection (see pass)
	reserved int
	deferred []*rjob

	// counters
	mallStarts int
	passes     uint64

	// Node releases, kept up to date by begin, finish and setRates.
	// res lists each node's residents: an owner and at most one guest,
	// since a mate holds all its nodes at full cores and so is alone on
	// them. rel[nd] is the latest pinned end among them, 0 when the
	// node is free. rels holds the distinct nonzero releases with their
	// node counts: every pass profile starts as a copy of it.
	res  [][2]*rjob
	rel  []int64
	rels releaseSet

	// Scratch reused across passes.
	frelsBuf  []int64   // feature-filtered releases
	sdsBuf    []float64 // dynamic-cutoff slowdown samples
	sharesBuf []int     // per-node shares for rate refreshes
	matesBuf  []nodemgr.Mate
	prof      profile // pass profile backing store
	fprof     profile // feature profile backing store
	search    mateSearch
	selBuf    mateSelection
}

// NewScheduler wires a scheduler over fresh substrate instances.
func NewScheduler(eng *sim.Engine, cfg Config, machine cluster.Config) *Scheduler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cl := cluster.New(machine)
	reg := drom.NewRegistry(machine.CoresPerNode(), cfg.DROMOverhead)
	idleW, coreW := cfg.EnergyIdleNodeW, cfg.EnergyCoreW
	if idleW == 0 && coreW == 0 {
		idleW, coreW = energy.DefaultIdleNodeW, energy.DefaultCoreW
	}
	s := &Scheduler{
		cfg:     cfg,
		eng:     eng,
		cl:      cl,
		reg:     reg,
		mgr:     nodemgr.New(cl, reg, cfg.SharingFactor),
		running: make(map[job.ID]*rjob),
		meter:   energy.NewMeter(machine.Nodes, idleW, coreW),
		maxSD:   cfg.MaxSlowdown,
		res:     make([][2]*rjob, machine.Nodes),
		rel:     make([]int64, machine.Nodes),
	}
	s.passFn = s.pass
	return s
}

// Cluster exposes the cluster for inspection in tests.
func (s *Scheduler) Cluster() *cluster.Cluster { return s.cl }

// DROMStats returns the registry traffic counters.
func (s *Scheduler) DROMStats() drom.Stats { return s.reg.Stats() }

// Passes returns how many scheduling passes ran.
func (s *Scheduler) Passes() uint64 { return s.passes }

// Submit schedules the arrival of a job at its submit time.
func (s *Scheduler) Submit(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.ReqNodes > s.cl.Config().Nodes {
		return fmt.Errorf("sched: job %d requests %d of %d nodes",
			j.ID, j.ReqNodes, s.cl.Config().Nodes)
	}
	if n := s.cl.NodesWith(j.Features); j.ReqNodes > n {
		return fmt.Errorf("sched: job %d requires features %v on %d nodes, machine has %d",
			j.ID, j.Features, j.ReqNodes, n)
	}
	s.eng.Schedule(j.Submit, sim.PriSubmit, func() {
		r := &rjob{j: j, poolIdx: -1}
		if s.cfg.RuntimeModel == model.App {
			if s.cfg.Speedups != nil {
				r.speedup = s.cfg.Speedups(j.App)
			} else {
				r.speedup = func(c int) float64 { return float64(c) }
			}
		}
		s.queue = append(s.queue, r)
		s.obsSubmitted(j.ID)
		s.requestPass()
	})
	return nil
}

// requestPass coalesces scheduling passes: at most one per timestamp,
// after all same-time submit/end events.
func (s *Scheduler) requestPass() {
	if s.passPending {
		return
	}
	s.passPending = true
	s.eng.Schedule(s.eng.Now(), sim.PriSched, s.passFn)
}

// shareFactor returns the extra throughput multiplier of the job: under
// the Oversubscribe policy, jobs on shared nodes pay the contention
// penalty because they do not adapt to the reduced resources.
func (s *Scheduler) shareFactor(r *rjob) float64 {
	if s.cfg.Policy != Oversubscribe || s.cfg.OversubPenalty == 0 {
		return 1
	}
	for _, nd := range r.nodes {
		if s.cl.JobsOn(nd) > 1 {
			return 1 - s.cfg.OversubPenalty
		}
	}
	return 1
}

// setRates derives both progress rates from the job's current per-node
// shares (queried once), pins the predicted end and returns the true
// remaining wall time. trueRate uses the configured runtime model; the
// prediction always uses the worst-case model, so the scheduler can
// guarantee completion inside predictions.
func (s *Scheduler) setRates(r *rjob, now int64) int64 {
	s.sharesBuf = s.mgr.SharesInto(s.sharesBuf[:0], r.j.ID, r.nodes)
	full := s.cl.Config().CoresPerNode()
	r.allFull = true
	for _, c := range s.sharesBuf {
		if c != full {
			r.allFull = false
			break
		}
	}
	sf := s.shareFactor(r)
	r.prog.SetRate(now, model.Rate(s.cfg.RuntimeModel, s.sharesBuf, full, r.speedup)*sf)
	r.pred.SetRate(now, model.Rate(model.WorstCase, s.sharesBuf, full, nil)*sf)
	// The prediction moves only with the rate, so it is computed here
	// once rather than at every later read.
	r.end = math.MaxInt64
	if rem := r.pred.RemainingWall(now); rem != math.MaxInt64 {
		r.end = now + rem
	}
	s.refreshReleases(r.nodes)
	// Every guest/hosts change that can admit a job to the pool or
	// evict one is followed by a rate refresh, so this is the only
	// membership check a running job needs (TestPoolInvariant).
	s.syncPool(r)
	return r.prog.RemainingWall(now)
}

// refreshRates re-derives both rates after an allocation change and
// reschedules the completion event.
func (s *Scheduler) refreshRates(r *rjob) {
	now := s.eng.Now()
	rem := s.setRates(r, now)
	if rem == math.MaxInt64 {
		panic(fmt.Sprintf("sched: job %d starved to rate 0", r.j.ID))
	}
	r.endEv = s.eng.Reschedule(r.endEv, now+rem)
}

// begin starts tracking a job that has just been placed on its nodes.
func (s *Scheduler) begin(r *rjob, malleable bool) {
	now := s.eng.Now()
	r.start = now
	r.mallStart = malleable
	r.prog = model.NewProgress(now, float64(r.j.ActualTime))
	r.pred = model.NewProgress(now, float64(r.j.ReqTime))
	s.addResident(r)
	rem := s.setRates(r, now)
	if rem == math.MaxInt64 {
		panic(fmt.Sprintf("sched: job %d starts starved", r.j.ID))
	}
	r.endEv = s.eng.Schedule(now+rem, sim.PriEnd, func() { s.finish(r) })
	s.running[r.j.ID] = r
	r.runIdx = len(s.runList)
	s.runList = append(s.runList, r)
	if malleable {
		s.mallStarts++
	}
	s.meter.Update(now, s.cl.UsedCores())
	s.obsStarted(r, malleable)
}

// finish handles the completion event of a job.
func (s *Scheduler) finish(r *rjob) {
	now := s.eng.Now()
	if !r.prog.Finished(now) {
		panic(fmt.Sprintf("sched: job %d completion fired with work left", r.j.ID))
	}
	delete(s.running, r.j.ID)
	last := len(s.runList) - 1
	moved := s.runList[last]
	s.runList[r.runIdx] = moved
	moved.runIdx = r.runIdx
	s.runList[last] = nil
	s.runList = s.runList[:last]
	if r.poolIdx >= 0 {
		s.dropPool(r)
	}
	s.dropResident(r)
	s.refreshReleases(r.nodes)

	// Listing 3's end path: clean DROM state, release the nodes, let the
	// per-node survivor (owner expanding back, or malleable guest
	// absorbing a finished owner) take the freed cores.
	affected, _ := s.mgr.Finish(r.j.ID, r.nodes, func(id job.ID) bool {
		other, ok := s.running[id]
		if !ok {
			return false
		}
		// Oversubscribed jobs always reclaim cores their co-runner
		// frees (they never gave them up logically); malleable jobs
		// expand/absorb; moldable and rigid jobs cannot.
		return s.cfg.Policy == Oversubscribe || other.j.Kind == job.Malleable
	})
	// Untangle role bookkeeping.
	if r.guest != nil { // r was a mate; its guest survives on r's nodes
		g := r.guest
		g.hosts = removeRjob(g.hosts, r)
		r.guest = nil
	}
	for _, m := range r.hosts { // r was a guest; its mates expand
		if m.guest == r {
			m.guest = nil
		}
	}
	r.hosts = nil
	for _, id := range affected {
		s.refreshRates(s.running[id])
		s.obsReconfigured(s.running[id])
	}

	s.results = append(s.results, metrics.JobResult{
		ID: r.j.ID, Submit: r.j.Submit, Start: r.start, End: now,
		ReqTime: r.j.ReqTime, ActualTime: r.j.ActualTime,
		ReqNodes: r.j.ReqNodes, Kind: r.j.Kind, App: r.j.App,
		MalleableStart: r.mallStart, WasMate: r.everMate,
	})
	s.meter.Update(now, s.cl.UsedCores())
	s.obsFinished(r.j.ID)
	s.requestPass()
}

// pass is one scheduling pass: the static conservative-backfill loop
// with, under SDPolicy, the malleable trial of Listing 1 after each
// failed static trial.
func (s *Scheduler) pass() {
	s.passPending = false
	s.passes++
	if len(s.queue) == 0 {
		return
	}
	now := s.eng.Now()
	if s.cfg.Cutoff != CutoffStatic {
		s.maxSD = s.dynamicCutoff(now)
	}
	prof := s.buildProfile(now)
	s.reserved = 0

	kept := s.queue[:0]
	examined := 0
	for qi, r := range s.queue {
		if examined >= s.cfg.BackfillDepth {
			kept = append(kept, s.queue[qi:]...)
			break
		}
		examined++
		// Once no node is free, no job can start statically for the
		// rest of the pass (availNow never rises), so an estimate
		// matters only to a malleable trial whose mate selection
		// succeeds. The selection does not read the profile: probe it
		// first, and defer the estimate and reservation of a job it
		// fails for. Only jobs that would still get a reservation need
		// one later.
		if prof.availNow == 0 && !s.hasMates(r, now) {
			if s.reserved+len(s.deferred) < s.cfg.ReservationDepth {
				s.deferred = append(s.deferred, r)
			}
			kept = append(kept, r)
			continue
		}
		s.replayDeferred(prof)
		est := s.estimate(r, prof)
		if est == now && s.cl.FreeNodesWith(r.j.Features) >= r.j.ReqNodes {
			s.startStatic(r, prof)
			continue
		}
		if s.coSchedulable(r) && s.tryMalleable(r, est, prof) {
			continue
		}
		s.reserve(r, est, prof)
		kept = append(kept, r)
	}
	// Estimates no selection asked for are dropped: the profile is
	// per-pass scratch.
	clear(s.deferred)
	s.deferred = s.deferred[:0]
	// zero the tail so removed jobs do not leak
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
}

// estimate is the job's predicted static start. Feature-constrained
// jobs additionally wait for matching nodes: their estimate is the
// later of the aggregate profile and a profile restricted to nodes
// carrying the features.
func (s *Scheduler) estimate(r *rjob, prof *profile) int64 {
	est := prof.earliestStart(r.j.ReqNodes, r.j.ReqTime)
	if len(r.j.Features) > 0 {
		if fest := s.featureEarliestStart(r, prof.now); fest > est {
			est = fest
		}
	}
	return est
}

// reserve gives a job that stays queued its reservation. Conservative
// backfill reserves for every examined job; with ReservationDepth 1
// only the head holds a reservation (EASY).
func (s *Scheduler) reserve(r *rjob, est int64, prof *profile) {
	if s.reserved < s.cfg.ReservationDepth {
		prof.reserve(est, est+r.j.ReqTime, r.j.ReqNodes)
		s.reserved++
	}
}

// coSchedulable reports whether the policy gives the job a malleable
// trial after a failed static one.
func (s *Scheduler) coSchedulable(r *rjob) bool {
	return (s.cfg.Policy == SDPolicy && r.j.Kind != job.Rigid) ||
		s.cfg.Policy == Oversubscribe
}

// startStatic places the job on free nodes now and charges the profile.
func (s *Scheduler) startStatic(r *rjob, prof *profile) {
	nodes, err := s.mgr.PlaceOwnerWith(r.j.ID, r.j.ReqNodes, r.j.Features)
	if err != nil {
		panic(fmt.Sprintf("sched: static start of job %d: %v", r.j.ID, err))
	}
	r.nodes = nodes
	s.begin(r, false)
	prof.reserve(s.eng.Now(), s.eng.Now()+r.j.ReqTime, r.j.ReqNodes)
}

// guestRun returns the job's predicted run time as a guest on the
// cores a shrunk mate cedes; ok is false when it cannot run as one.
func (s *Scheduler) guestRun(r *rjob) (run int64, ok bool) {
	full := s.cl.Config().CoresPerNode()
	guestCores := s.mgr.GuestCores()
	if guestCores < r.j.TasksPerNode {
		return 0, false // cannot satisfy one core per task
	}
	guestRate := model.UniformRate(model.WorstCase, guestCores, full, nil)
	if s.cfg.Policy == Oversubscribe {
		guestRate *= 1 - s.cfg.OversubPenalty
	}
	inc := model.Increase(r.j.ReqTime, guestRate)
	if math.IsInf(inc, 1) {
		return 0, false
	}
	return r.j.ReqTime + int64(math.Ceil(inc)), true
}

// tryMalleable is the malleable branch of Listing 1. est is the
// predicted static start from the reservation map. It reports whether
// the job was started.
func (s *Scheduler) tryMalleable(r *rjob, est int64, prof *profile) bool {
	mallRun, ok := s.guestRun(r)
	if !ok {
		return false
	}
	now := prof.now
	if est+r.j.ReqTime <= now+mallRun {
		return false // waiting for a static start is predicted better
	}
	sel := s.selectMates(r, now, now+mallRun)
	if sel == nil {
		return false
	}
	s.startMalleable(r, sel, mallRun, prof)
	return true
}

// hasMates reports whether a malleable trial of the job would find
// mates now, whatever its estimate.
func (s *Scheduler) hasMates(r *rjob, now int64) bool {
	if !s.coSchedulable(r) {
		return false
	}
	mallRun, ok := s.guestRun(r)
	return ok && s.selectMates(r, now, now+mallRun) != nil
}

// replayDeferred gives the deferred jobs, in queue order, the
// estimates and reservations the pass put off. It runs before the job
// whose probe succeeded starts, so the profile, the feature profile and
// the pool are exactly as a pass that never deferred would see them.
// It touches nothing a mate selection reads, so the selection
// tryMalleable then makes is the probe's.
func (s *Scheduler) replayDeferred(prof *profile) {
	for _, d := range s.deferred {
		s.reserve(d, s.estimate(d, prof), prof)
	}
	clear(s.deferred)
	s.deferred = s.deferred[:0]
}

// startMalleable shrinks the selected mates and starts the guest on
// their ceded cores (plus any free nodes mixed in, which the profile
// then shows busy until the guest's predicted end).
func (s *Scheduler) startMalleable(r *rjob, sel *mateSelection, mallRun int64, prof *profile) {
	mates := s.matesBuf[:0]
	for _, m := range sel.mates {
		mates = append(mates, nodemgr.Mate{ID: m.j.ID, Nodes: m.nodes})
	}
	s.matesBuf = mates[:0]
	s.mgr.StartGuest(r.j.ID, mates)
	r.nodes = r.nodes[:0]
	for _, m := range sel.mates {
		r.nodes = append(r.nodes, m.nodes...)
	}
	// Free nodes mixed in are owned outright (full cores).
	if sel.freeNodes > 0 {
		freeNodes, err := s.mgr.PlaceOwnerWith(r.j.ID, sel.freeNodes, r.j.Features)
		if err != nil {
			panic(fmt.Sprintf("sched: free-node mix for job %d: %v", r.j.ID, err))
		}
		r.nodes = append(r.nodes, freeNodes...)
	}
	if len(r.nodes) != r.j.ReqNodes {
		panic(fmt.Sprintf("sched: job %d placed on %d nodes, requested %d",
			r.j.ID, len(r.nodes), r.j.ReqNodes))
	}

	// update_stats of Listing 1: commit the mates' predicted increases
	// and link roles.
	keepRate := float64(s.mgr.OwnerKeepCores()) / float64(s.cl.Config().CoresPerNode())
	if s.cfg.Policy == Oversubscribe {
		keepRate *= 1 - s.cfg.OversubPenalty
	}
	for _, m := range sel.mates {
		m.guest = r
		m.everMate = true
		m.increase += model.MateIncrease(mallRun, keepRate)
		r.hosts = append(r.hosts, m)
	}
	s.begin(r, true)
	// The mates' rates changed: refresh their progress and end events.
	for _, m := range sel.mates {
		s.refreshRates(m)
		s.obsReconfigured(m)
	}
	if sel.freeNodes > 0 {
		prof.reserve(prof.now, prof.now+mallRun, sel.freeNodes)
	}
}

// addResident records r on each of its nodes.
func (s *Scheduler) addResident(r *rjob) {
	for _, nd := range r.nodes {
		slot := &s.res[nd]
		switch {
		case slot[0] == nil:
			slot[0] = r
		case slot[1] == nil:
			slot[1] = r
		default:
			panic(fmt.Sprintf("sched: job %d is a third resident of node %d", r.j.ID, nd))
		}
	}
}

// dropResident removes r from each of its nodes.
func (s *Scheduler) dropResident(r *rjob) {
	for _, nd := range r.nodes {
		slot := &s.res[nd]
		if slot[0] == r {
			slot[0] = nil
		} else if slot[1] == r {
			slot[1] = nil
		}
	}
}

// refreshReleases recomputes each listed node's release from its
// residents' pinned ends and moves the node in the release set when
// the release changed.
func (s *Scheduler) refreshReleases(nodes []int) {
	for _, nd := range nodes {
		var t int64
		for _, x := range s.res[nd] {
			if x != nil && x.end > t {
				t = x.end
			}
		}
		if old := s.rel[nd]; old != t {
			s.rel[nd] = t
			s.rels.move(old, t)
		}
	}
}

// featureEarliestStart estimates when enough nodes carrying the job's
// required features become free, from the running jobs' predicted ends.
// Reservations of other waiting feature jobs are not feature-tracked;
// the aggregate profile covers them approximately.
func (s *Scheduler) featureEarliestStart(r *rjob, now int64) int64 {
	matching := s.cl.NodesWith(r.j.Features)
	frels := s.frelsBuf[:0]
	for nd, end := range s.rel {
		if end > 0 && s.cl.NodeHasFeatures(nd, r.j.Features) {
			frels = append(frels, end)
		}
	}
	s.frelsBuf = frels
	s.fprof.init(now, matching, s.cl.FreeNodesWith(r.j.Features), frels)
	return s.fprof.earliestStart(r.j.ReqNodes, r.j.ReqTime)
}

// buildProfile constructs the pass's availability step function from
// the maintained release set (shared nodes release at the latest
// resident's predicted end).
func (s *Scheduler) buildProfile(now int64) *profile {
	s.prof.copyFrom(now, s.cl.Config().Nodes, s.cl.FreeNodes(), &s.rels)
	return &s.prof
}

// dynamicCutoff computes the feedback cut-off from the predicted
// slowdowns of running jobs (Section 3.2.2, case 2).
func (s *Scheduler) dynamicCutoff(now int64) float64 {
	if len(s.runList) == 0 {
		return math.Inf(1)
	}
	sds := s.sdsBuf[:0]
	for _, r := range s.runList {
		wait := float64(r.start - r.j.Submit)
		end := r.predEndAt(now)
		if end == math.MaxInt64 {
			continue
		}
		run := float64(end - r.start)
		sds = append(sds, (wait+run)/float64(r.j.ReqTime))
	}
	s.sdsBuf = sds
	if len(sds) == 0 {
		return math.Inf(1)
	}
	switch s.cfg.Cutoff {
	case CutoffDynAvg:
		var sum float64
		for _, v := range sds {
			sum += v
		}
		return sum / float64(len(sds))
	case CutoffDynMedian:
		return stats.PercentileInPlace(sds, 50)
	case CutoffDynP70:
		return stats.PercentileInPlace(sds, 70)
	}
	panic(fmt.Sprintf("sched: unexpected cutoff %v", s.cfg.Cutoff))
}

func removeRjob(xs []*rjob, x *rjob) []*rjob {
	for i, v := range xs {
		if v == x {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}
