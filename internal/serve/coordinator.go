package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sdpolicy"
)

// coordinator fans campaigns out to an elastic fleet of worker sdserve
// instances and re-merges their streams. Each shard is a /v1/campaigns
// resource on its worker, created and attached exactly as any client
// would, under an ID that extends the campaign's own. The points are
// planned into
// shardsPerWorker shards per fleet member (canonical duplicates
// co-located, so nothing simulates twice across the fleet) and handed
// out work-stealing style from a queue: a fast worker simply takes more
// shards, and a worker that joins mid-campaign — dynamic registration
// or a dead peer probed back to life — steals from the remaining queue.
// A worker that fails mid-shard requeues only its unresolved points, is
// taken out of rotation, and re-enters via the background health prober
// (or by re-registering), so the merged output is identical to a
// single-process run as long as the campaign never runs out of workers
// entirely. When its engine persists its cache (Engine.PersistCache),
// the coordinator also asks its workers for per-job reports and primes
// that cache with every proxied result, which the engine appends to the
// cache directory, so they warm later local analyses.
type coordinator struct {
	peers           *peerSet
	client          *http.Client
	shardsPerWorker int
	probeInterval   time.Duration
	probeTimeout    time.Duration
	leaseTTL        time.Duration
	engine          *sdpolicy.Engine
}

// newCoordinator builds the fan-out state over the static worker URLs
// (possibly none: registration can populate the fleet later).
func newCoordinator(cfg CoordinatorConfig, engine *sdpolicy.Engine) (*coordinator, error) {
	peers, err := newPeerSet(cfg.Workers)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		// No overall timeout: campaigns run for minutes by design, and
		// cancellation flows through the request context instead. Probes
		// bound themselves with per-request contexts.
		client = &http.Client{}
	}
	c := &coordinator{
		peers:           peers,
		client:          client,
		shardsPerWorker: cfg.ShardsPerWorker,
		probeInterval:   cfg.ProbeInterval,
		probeTimeout:    cfg.ProbeTimeout,
		leaseTTL:        cfg.LeaseTTL,
		engine:          engine,
	}
	if c.shardsPerWorker <= 0 {
		c.shardsPerWorker = sdpolicy.DefaultShardsPerWorker
	}
	if c.probeInterval <= 0 {
		c.probeInterval = time.Second
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = 2 * time.Second
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = 30 * time.Second
	}
	return c, nil
}

// probeLoop is the background health prober: every tick it expires
// unrenewed heartbeat leases and probes every out-of-rotation peer
// whose backoff has elapsed, returning responsive ones to rotation —
// which wakes any in-flight campaign so the revived worker starts
// stealing shards immediately. It runs until stop closes (BeginShutdown).
func (c *coordinator) probeLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(c.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		c.peers.expireLeases()
		for _, u := range c.peers.probeCandidates() {
			go c.probe(u)
		}
	}
}

// probe checks one peer's /healthz and reports the outcome to the peer
// set. Any 200 counts as alive — the probe asks "is the process up",
// not "is it idle".
func (c *coordinator) probe(u string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
	if err != nil {
		c.peers.probeResult(u, err)
		return
	}
	resp, err := c.client.Do(req)
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
	}
	c.peers.probeResult(u, err)
}

// shardJob is one unit of fan-out work: the original-campaign positions
// still unresolved. Jobs shrink on retry — positions whose results
// already streamed before a worker died are not re-sent — and carry
// how many times they have been requeued, reported as the steal count
// in trace spans.
type shardJob struct {
	positions []int
	steals    int
}

// shardVerdict classifies how one shard attempt ended.
type shardVerdict int

const (
	verdictOK        shardVerdict = iota
	verdictFatal                  // deterministic error: retrying reproduces it
	verdictDead                   // the worker is unreachable or broke its stream
	verdictTransient              // the worker refused work (429/503) but is up
)

// fanout is the shared state of one coordinated campaign: a queue of
// shard jobs stolen by per-peer worker loops that come and go with
// fleet membership.
type fanout struct {
	points  []sdpolicy.Point
	updates chan<- sdpolicy.PointResult
	cancel  context.CancelFunc
	// campaignID prefixes every shard's ID on its worker (shardID);
	// trace is the campaign's span recorder, nil unless the client asked.
	campaignID string
	trace      *traceRecorder

	mu          sync.Mutex
	pending     []shardJob
	outstanding int // jobs not yet fully resolved (queued + in flight)
	received    []bool
	active      map[string]bool // peers with a live worker loop
	firstErr    error
	// wake is closed and replaced on every enqueue so idle worker loops
	// re-check the queue; done closes exactly once when the campaign
	// resolves (all jobs finished, first fatal error, or stranded).
	wake chan struct{}
	done chan struct{}
	// strandBy bounds how long a stranded campaign waits for a
	// revivable peer (zero = no strand in progress); strandWait marks a
	// deferred re-check already scheduled.
	strandBy   time.Time
	strandWait bool
}

// run executes the campaign across the fleet, delivering each result on
// updates the moment a worker streams it, and returns once every point
// has resolved or the campaign failed. It mirrors Engine.RunStream's
// contract: updates is closed before returning. wantReports asks the
// workers for per-job reports and relays each on its PointResult as the
// bytes the worker sent.
func (c *coordinator) run(ctx context.Context, points []sdpolicy.Point, updates chan<- sdpolicy.PointResult, wantReports bool, campaignID string, tr *traceRecorder) error {
	defer close(updates)
	c.peers.expireLeases()
	fleet := c.peers.fleetSize()
	if fleet == 0 {
		return fmt.Errorf("coordinator: no workers in the fleet (none static, none registered)")
	}
	shards, err := sdpolicy.PlanFleetShards(points, fleet, c.shardsPerWorker)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &fanout{
		points:     points,
		updates:    updates,
		cancel:     cancel,
		campaignID: campaignID,
		trace:      tr,
		received:   make([]bool, len(points)),
		active:     make(map[string]bool),
		wake:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, s := range shards {
		if len(s.Positions) == 0 {
			continue
		}
		st.outstanding++
		st.pending = append(st.pending, shardJob{positions: s.Positions})
	}
	mShardsQueued.Add(uint64(st.outstanding))
	if st.outstanding == 0 {
		return ctx.Err()
	}

	// Worker loops are spawned for every in-rotation peer now, and for
	// every peer that enters rotation mid-campaign (registration or a
	// successful health probe) — the membership subscription is what
	// makes the fleet elastic within a single campaign.
	notify := make(chan struct{}, 1)
	unsubscribe := c.peers.subscribe(notify)
	defer unsubscribe()
	var wg sync.WaitGroup
	spawn := func() {
		for _, u := range c.peers.alive() {
			st.mu.Lock()
			if st.firstErr == nil && st.outstanding > 0 && !st.active[u] {
				st.active[u] = true
				wg.Add(1)
				go func(workerURL string) {
					defer wg.Done()
					c.workerLoop(ctx, workerURL, st, wantReports)
				}(u)
			}
			st.mu.Unlock()
		}
	}
	spawn()
	c.checkStranded(st, fmt.Errorf("coordinator: no worker in rotation"))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-notify:
				spawn()
			case <-st.done:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	select {
	case <-st.done:
	case <-ctx.Done():
		// The caller's cancellation (client disconnect, shutdown)
		// becomes the campaign's first error; fail() cancels the shard
		// contexts so wg.Wait cannot hang on in-flight streams.
		st.fail(ctx.Err())
	}
	wg.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.firstErr != nil {
		return st.firstErr
	}
	for pos, ok := range st.received {
		if !ok {
			return fmt.Errorf("coordinator: position %d never resolved", pos)
		}
	}
	return nil
}

// workerLoop steals shard jobs for one peer until the campaign resolves
// or the peer faults (at which point the job's unresolved remainder
// requeues, the peer leaves rotation, and the health prober owns
// bringing it back — a revived peer gets a fresh loop).
func (c *coordinator) workerLoop(ctx context.Context, workerURL string, st *fanout, wantReports bool) {
	for {
		job, wait, finished := st.next()
		if finished {
			st.release(workerURL)
			return
		}
		if wait != nil {
			select {
			case <-wait:
				continue
			case <-st.done:
				st.release(workerURL)
				return
			case <-ctx.Done():
				st.release(workerURL)
				return
			}
		}
		mShardsStolen.With(workerURL).Inc()
		mPeerInflight.With(workerURL).Inc()
		begin := time.Now()
		remaining, err, verdict := c.runShard(ctx, workerURL, job, st, wantReports)
		mPeerInflight.With(workerURL).Dec()
		st.trace.record(workerURL, len(job.positions), job.steals, begin, err)
		switch {
		case verdict == verdictOK:
			st.finishShard()
		case ctx.Err() != nil:
			// The campaign is already over (client gone, first error, all
			// positions resolved): don't blame the worker.
			st.release(workerURL)
			st.fail(ctx.Err())
			return
		case verdict == verdictDead || verdict == verdictTransient:
			if len(remaining.positions) == 0 {
				// The stream broke after delivering every result but
				// before its terminal event: the shard is done.
				st.finishShard()
				continue
			}
			remaining.steals = job.steals + 1
			st.requeue(remaining)
			st.release(workerURL)
			c.peers.markFault(workerURL, err, verdict == verdictTransient)
			c.checkStranded(st, err)
			return
		default:
			st.release(workerURL)
			st.fail(err)
			return
		}
	}
}

// runShard runs one shard as a campaign resource on one worker,
// emitting results as they stream. It returns the job's unresolved
// remainder, the error that ended the attempt, and the verdict: whether
// the error indicts the worker (dead or merely refusing work —
// retryable elsewhere) rather than the campaign (deterministic, so
// retrying would reproduce it). A shard that ends before its terminal
// frame — the campaign cancelled, the stream cut — is DELETEd on the
// worker, so it stops simulating points nobody will read.
func (c *coordinator) runShard(ctx context.Context, workerURL string, job shardJob, st *fanout, wantReports bool) (remaining shardJob, err error, verdict shardVerdict) {
	got := make([]bool, len(job.positions))
	missing := func() shardJob {
		var rem shardJob
		for i, pos := range job.positions {
			if !got[i] {
				rem.positions = append(rem.positions, pos)
			}
		}
		return rem
	}
	pts := make([]sdpolicy.Point, len(job.positions))
	for i, pos := range job.positions {
		pts[i] = st.points[pos]
	}
	prime := c.engine != nil && c.engine.PersistsCache()
	reports := wantReports || prime
	body, err := json.Marshal(struct {
		Points  []sdpolicy.Point `json:"points"`
		Reports bool             `json:"reports,omitempty"`
	}{pts, reports})
	if err != nil {
		return job, err, verdictFatal
	}
	id, err := createResource(ctx, c.client, workerURL, "/v1/campaigns", shardID(st.campaignID), body)
	if err != nil {
		return job, fmt.Errorf("worker %w", err), workerVerdict(err)
	}
	terminal := false
	defer func() {
		if !terminal {
			c.cancelShard(workerURL, id)
		}
	}()
	resp, err := attachStream(ctx, c.client, workerURL, "/v1/campaigns", id, 0)
	if err != nil {
		return job, fmt.Errorf("worker %w", err), workerVerdict(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var f streamFrame
		if derr := dec.Decode(&f); derr != nil {
			return missing(), fmt.Errorf("worker %s: stream ended early: %w", workerURL, derr), verdictDead
		}
		switch {
		case f.Index != nil:
			// A result arrives with its report or not at all: a frame
			// without one leaves the point unresolved, to be requeued.
			local := *f.Index
			if local < 0 || local >= len(job.positions) || f.Result == nil || (reports && len(f.Report) == 0) {
				return missing(), fmt.Errorf("worker %s: malformed result frame (index %d of %d points)",
					workerURL, local, len(job.positions)), verdictDead
			}
			if got[local] {
				continue
			}
			got[local] = true
			pos := job.positions[local]
			// Priming is best-effort, as caching is: an undecodable
			// report skips it, and the relayed bytes stay the worker's.
			if prime && f.Result.SetReportJSON(f.Report) == nil {
				c.engine.Prime(st.points[pos], f.Result)
			}
			if !wantReports {
				f.Report = nil
			}
			st.emit(ctx, pos, f.Result, f.Report)
		case f.Shutdown != nil && *f.Shutdown:
			return missing(), fmt.Errorf("worker %s: shutting down", workerURL), verdictDead
		case f.Done != nil && *f.Done:
			terminal = true
			if rem := missing(); len(rem.positions) != 0 {
				return rem, fmt.Errorf("worker %s: done after %d of %d results",
					workerURL, len(job.positions)-len(rem.positions), len(job.positions)), verdictDead
			}
			return shardJob{}, nil, verdictOK
		case f.Cancelled != nil && *f.Cancelled:
			// Someone else cancelled the shard on the worker: requeue it.
			terminal = true
			return missing(), fmt.Errorf("worker %s: shard %s cancelled", workerURL, id), verdictTransient
		case f.Error != nil:
			terminal = true
			return missing(), fmt.Errorf("worker %s: %s", workerURL, f.Error.Message), verdictFatal
		}
	}
}

// workerVerdict classifies a failed shard create or attach. A 400 is
// deterministic — every worker would reject the same points — so it
// fails the campaign. 429/503 mean the worker is up but refusing work
// (slot exhaustion, shutdown drain, standby): requeue and keep probing,
// it usually clears in seconds. Anything else (transport errors, 5xx,
// proxies) retires the worker to the prober.
func workerVerdict(err error) shardVerdict {
	switch httpStatus(err) {
	case http.StatusBadRequest:
		return verdictFatal
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return verdictTransient
	}
	return verdictDead
}

// shardID names a shard's resource on its worker: the campaign's ID, a
// dot, and a random suffix — so worker logs correlate with the
// campaign while every attempt stays unique across retries, coordinator
// restarts and failovers. The campaign part is trimmed to keep the
// whole within maxCampaignIDLen.
func shardID(campaignID string) string {
	suffix := newCampaignID()
	if keep := maxCampaignIDLen - len(suffix) - 1; len(campaignID) > keep {
		campaignID = campaignID[:keep]
	}
	return campaignID + "." + suffix
}

// cancelShard DELETEs an abandoned shard resource. Best-effort: a dead
// worker has nothing left to cancel.
func (c *coordinator) cancelShard(workerURL, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, workerURL+"/v1/campaigns/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// next hands out the queue's front job. When the queue is empty it
// returns a wait channel that closes on the next enqueue (the caller
// must also watch done/ctx); when nothing is outstanding it reports the
// campaign finished. The empty-queue check and the wake-channel grab
// happen under one lock acquisition, so an enqueue can never slip
// between them unseen.
func (st *fanout) next() (job shardJob, wait <-chan struct{}, finished bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.pending) > 0 {
		job = st.pending[0]
		st.pending = st.pending[1:]
		return job, nil, false
	}
	if st.outstanding == 0 || st.firstErr != nil {
		return shardJob{}, nil, true
	}
	return shardJob{}, st.wake, false
}

// requeue returns a failed shard's unresolved remainder to the queue
// and wakes idle worker loops to steal it.
func (st *fanout) requeue(job shardJob) {
	mShardsRequeued.Inc()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pending = append(st.pending, job)
	close(st.wake)
	st.wake = make(chan struct{})
}

// finishShard retires one fully-resolved job, resolving the campaign
// once the last one lands. Progress also resets the strand clock: a
// fleet that intermittently refuses work but keeps completing shards
// is slow, not stranded.
func (st *fanout) finishShard() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.outstanding--
	st.strandBy = time.Time{}
	if st.outstanding == 0 {
		st.closeDoneLocked()
	}
}

// release drops a worker loop from the active set (before its peer is
// marked faulted, so a probe revival can never race a still-registered
// loop and skip respawning).
func (st *fanout) release(workerURL string) {
	st.mu.Lock()
	delete(st.active, workerURL)
	st.mu.Unlock()
}

// checkStranded fails the campaign when work remains but nobody is
// left to do it: no live worker loop and no peer in rotation. One
// exception keeps the transient-fault promise honest for small fleets:
// if an out-of-rotation peer is revivable within one prober cycle
// (probe in flight, or a 429/503-style fault due for its immediate
// re-probe), the campaign waits — re-checking after a grace of one
// cycle, bounded overall by strandBy so a worker that refuses forever
// still fails the campaign instead of hanging the client. Hard faults
// (connection refused, waiting out a backoff) fail fast as before; a
// completed shard resets the strand clock (see finishShard).
func (c *coordinator) checkStranded(st *fanout, lastErr error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.outstanding == 0 || st.firstErr != nil {
		return
	}
	if len(st.active) > 0 {
		return
	}
	if len(c.peers.alive()) > 0 {
		// A peer is in rotation; the dispatcher will (re)spawn its loop.
		return
	}
	grace := c.probeInterval + c.probeTimeout + probeBackoffBase
	now := time.Now()
	if c.peers.revivable() && (st.strandBy.IsZero() || now.Before(st.strandBy)) {
		if st.strandBy.IsZero() {
			st.strandBy = now.Add(4 * grace)
		}
		if !st.strandWait {
			st.strandWait = true
			go func() {
				select {
				case <-time.After(grace):
				case <-st.done:
					return
				}
				st.mu.Lock()
				st.strandWait = false
				st.mu.Unlock()
				c.checkStranded(st, lastErr)
			}()
		}
		return
	}
	st.firstErr = fmt.Errorf("all campaign workers failed; last: %w", lastErr)
	st.cancel()
	st.closeDoneLocked()
}

// fail records the campaign's first fatal error and cancels the rest.
func (st *fanout) fail(err error) {
	if err == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.cancel()
	st.closeDoneLocked()
}

// closeDoneLocked resolves the campaign exactly once. Callers hold st.mu.
func (st *fanout) closeDoneLocked() {
	select {
	case <-st.done:
	default:
		close(st.done)
	}
}

// emit relays one resolved position, with its report when the campaign
// asked for reports, to the client stream, deduplicating positions that
// a retried shard could deliver twice.
func (st *fanout) emit(ctx context.Context, pos int, res *sdpolicy.Result, report json.RawMessage) {
	st.mu.Lock()
	if st.received[pos] {
		st.mu.Unlock()
		return
	}
	st.received[pos] = true
	st.mu.Unlock()
	select {
	case st.updates <- sdpolicy.PointResult{Index: pos, Point: st.points[pos], Result: res, Report: report}:
	case <-ctx.Done():
	}
}
