package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sdpolicy"
	"sdpolicy/internal/journal"
)

// coordinator fans campaigns out to an elastic fleet of worker sdserve
// instances and re-merges their streams. Each shard is a /v1/campaigns
// resource on its worker, created and attached exactly as any client
// would, under an ID that extends the campaign's own. The points are
// planned into shardsPerWorker shards per fleet member (canonical
// duplicates co-located, so nothing simulates twice across the fleet)
// and queued. One loop per campaign (run) hands the queue's front to
// every worker in rotation that has nothing in flight: a fast worker
// simply takes more shards, and a worker that joins mid-campaign —
// dynamic registration or a dead peer probed back to life — takes the
// next one. A worker that fails mid-shard requeues only its unresolved
// points and leaves rotation until the background health prober (or a
// re-registration) brings it back, so the merged output is identical to
// a single-process run as long as the campaign never runs out of
// workers entirely. When its engine persists its cache
// (Engine.PersistCache), the coordinator also asks its workers for
// per-job reports and primes that cache with every proxied result,
// which the engine appends to the cache directory, so they warm later
// local analyses.
type coordinator struct {
	peers           *peerSet
	client          *http.Client
	shardsPerWorker int
	probeInterval   time.Duration
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
		leaseTTL:        cfg.LeaseTTL,
		engine:          engine,
	}
	if c.shardsPerWorker <= 0 {
		c.shardsPerWorker = sdpolicy.DefaultShardsPerWorker
	}
	if c.probeInterval <= 0 {
		c.probeInterval = time.Second
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = 30 * time.Second
	}
	return c, nil
}

// probeLoop is the background health prober: every tick it expires
// unrenewed heartbeat leases and probes every out-of-rotation peer
// whose backoff has elapsed, returning responsive ones to rotation —
// which wakes every in-flight campaign's loop, so the revived worker
// takes queued shards at once. It runs until stop closes (BeginShutdown).
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
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
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

// fanout is what a campaign's shard attempts share: the points and
// their encodings, the client stream, and the positions already
// relayed. Everything else about a fan-out belongs to run's loop.
type fanout struct {
	points []sdpolicy.Point
	// wire holds each point's JSON encoding, spliced into shard bodies.
	wire    [][]byte
	updates chan<- sdpolicy.PointResult
	// campaignID prefixes every shard's ID on its worker (shardID).
	campaignID string

	mu       sync.Mutex
	received []bool
}

// attempt is how one shard attempt ended: the peer that ran it, the job
// it carried, the job's unresolved remainder, when it began, and the
// error and verdict runShard returned.
type attempt struct {
	peer      string
	job       shardJob
	remainder shardJob
	begin     time.Time
	err       error
	verdict   shardVerdict
}

// run executes the campaign across the fleet, delivering each result on
// updates the moment a worker streams it, and returns once every point
// has resolved or the campaign failed. It mirrors Engine.RunStream's
// contract: updates is closed before returning. wire holds each
// point's JSON encoding. wantReports asks the workers for per-job
// reports and relays each on its PointResult as the bytes the worker
// sent, compacted. tr, when not nil, records one span per attempt.
//
// run is one loop, and only it touches the shard queue, the peers with
// an attempt in flight, the first error and the strand deadline. A
// shard is unresolved while it is queued or in flight. Each turn the
// loop hands the queue's front to every peer in rotation with nothing
// in flight, each attempt a goroutine that runs runShard and sends back
// how it ended, and then waits for an attempt to end, a peer to enter
// rotation, the strand timer or the caller's cancellation. An attempt
// that ends OK, or with its worker faulted after every result arrived,
// resolves its shard. A cancelled campaign blames no worker. A fatal
// error fails the campaign. A dead or refusing worker has its shard's
// unresolved remainder requeued and leaves rotation. With nothing in
// flight and no peer in rotation the campaign is stranded: it waits one
// prober cycle's grace at a time while a peer is revivable, four graces
// at most from its first strand since a shard last resolved, and then
// fails. On the way out run cancels the attempts still in flight and
// waits for them.
func (c *coordinator) run(ctx context.Context, points []sdpolicy.Point, wire [][]byte, updates chan<- sdpolicy.PointResult, wantReports bool, campaignID string, tr *traceRecorder) error {
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
	var queue []shardJob
	for _, s := range shards {
		if len(s.Positions) != 0 {
			queue = append(queue, shardJob{positions: s.Positions})
		}
	}
	mShardsQueued.Add(uint64(len(queue)))
	if len(queue) == 0 {
		return ctx.Err()
	}
	st := &fanout{points: points, wire: wire, updates: updates, campaignID: campaignID, received: make([]bool, len(points))}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A peer entering rotation mid-campaign (registration or a
	// successful health probe) pings notify, so it takes queued shards
	// at once: that is what makes the fleet elastic within a campaign.
	notify := make(chan struct{}, 1)
	defer c.peers.subscribe(notify)()

	ends := make(chan attempt)
	inFlight := make(map[string]bool)
	var firstErr error
	lastErr := fmt.Errorf("coordinator: no worker in rotation")
	grace := c.probeInterval + probeTimeout + probeBackoffBase
	var strandBy time.Time
	var strandTimer <-chan time.Time
	end := func(a attempt) {
		delete(inFlight, a.peer)
		tr.record(a.peer, len(a.job.positions), a.job.steals, a.begin, a.err)
	}
	for (len(queue) > 0 || len(inFlight) > 0) && firstErr == nil {
		for _, u := range c.peers.alive() {
			if len(queue) == 0 {
				break
			}
			if inFlight[u] {
				continue
			}
			inFlight[u] = true
			job := queue[0]
			queue = queue[1:]
			go func() {
				mShardsStolen.With(u).Inc()
				mPeerInflight.With(u).Inc()
				a := attempt{peer: u, job: job, begin: time.Now()}
				a.remainder, a.err, a.verdict = c.runShard(ctx, u, job, st, wantReports)
				mPeerInflight.With(u).Dec()
				ends <- a
			}()
		}
		if len(inFlight) == 0 {
			// Stranded. Hard faults (connection refused, a peer waiting
			// out its backoff) fail fast; a peer that may be back within
			// one prober cycle (a probe in flight, a 429/503 due for its
			// immediate re-probe) is waited for, within strandBy, so a
			// worker refusing forever still ends the campaign.
			now := time.Now()
			if !c.peers.revivable() || (!strandBy.IsZero() && !now.Before(strandBy)) {
				firstErr = fmt.Errorf("all campaign workers failed; last: %w", lastErr)
				break
			}
			if strandBy.IsZero() {
				strandBy = now.Add(4 * grace)
			}
			if strandTimer == nil {
				strandTimer = time.After(grace)
			}
		}
		select {
		case a := <-ends:
			end(a)
			switch {
			case a.verdict == verdictOK:
				strandBy = time.Time{}
			case ctx.Err() != nil:
				firstErr = ctx.Err()
			case a.verdict == verdictFatal:
				firstErr = a.err
			case len(a.remainder.positions) == 0:
				// The stream broke after delivering every result but
				// before its terminal frame: the shard is done.
				strandBy = time.Time{}
			default:
				mShardsRequeued.Inc()
				queue = append(queue, shardJob{positions: a.remainder.positions, steals: a.job.steals + 1})
				c.peers.markFault(a.peer, a.err, a.verdict == verdictTransient)
				lastErr = a.err
			}
		case <-notify:
		case <-strandTimer:
			strandTimer = nil
		case <-ctx.Done():
			firstErr = ctx.Err()
		}
	}
	cancel()
	for len(inFlight) > 0 {
		end(<-ends)
	}
	if firstErr != nil {
		return firstErr
	}
	for pos, ok := range st.received {
		if !ok {
			return fmt.Errorf("coordinator: position %d never resolved", pos)
		}
	}
	return nil
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
	wire := make([][]byte, len(job.positions))
	for i, pos := range job.positions {
		wire[i] = st.wire[pos]
	}
	prime := c.engine != nil && c.engine.PersistsCache()
	reports := wantReports || prime
	body, err := pointsObject(wire, campaignOptions{Reports: reports})
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
	frames := newShardStream(resp.Body, wire)
	for {
		var f streamFrame
		if derr := frames.next(&f); derr != nil {
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
			// f.Result decoded: that is the check on the worker's
			// output. A result that arrived as the bytes json.Marshal
			// writes keeps them, so appendResult encodes nothing. The
			// report is compacted and HTML-escaped, as json.Marshal
			// writes a RawMessage, so the frame stays one line; it
			// decoded, so it compacts.
			var report json.RawMessage
			if wantReports {
				report, _ = json.Marshal(f.Report)
			}
			st.emit(ctx, pos, f.Result, report)
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

// shardStream reads the frames of a worker's attach stream for one
// shard. While each line is a result frame in the worker's own layout
// (resultLine), it reads the stream line by line and parses each frame
// once, and the result keeps the worker's bytes as its encoding. From
// the first line that is anything else (a frame with a report, a
// terminal frame, a line longer than the buffer, a frame that does not
// end its line), that line and the rest of the stream go to
// json.Decoder. A shard that asks for reports (a report campaign, or
// any campaign of a coordinator that primes its cache) therefore goes
// to json.Decoder from its first result, and its results keep their
// bytes through Result.UnmarshalJSON.
type shardStream struct {
	r *bufio.Reader
	// wire holds the shard's points' encodings, by index in the shard.
	wire [][]byte
	dec  *json.Decoder
	// lines counts the frames read line by line.
	lines int
}

func newShardStream(body io.Reader, wire [][]byte) *shardStream {
	return &shardStream{r: bufio.NewReader(body), wire: wire}
}

// next reads the stream's next frame into f, which must be zero, as
// json.Decoder.Decode would.
func (s *shardStream) next(f *streamFrame) error {
	if s.dec == nil {
		line, err := s.r.ReadSlice('\n')
		if err == nil && s.resultLine(line[:len(line)-1], f) {
			s.lines++
			return nil
		}
		// The decoder reads all of line before it reads s.r again, so
		// line's bytes are intact. A response body repeats its read
		// error, so the decoder meets the end the line met.
		s.dec = json.NewDecoder(io.MultiReader(bytes.NewReader(line), s.r))
	}
	return s.dec.Decode(f)
}

// resultLine reads line, without its newline, as a result frame in the
// worker's own layout, {"seq":N,"index":I,"point":P,"result":R}: N and
// I spelled as json.Marshal spells them, I an index into the shard, P
// byte for byte the coordinator's encoding of that point, and R an
// object that Result.UnmarshalJSON decodes. On such a line it sets f to
// the frame json.Decoder would decode and reports true; it leaves f
// alone on any other line.
func (s *shardStream) resultLine(line []byte, f *streamFrame) bool {
	rest, ok := bytes.CutPrefix(line, []byte(`{"seq":`))
	if !ok {
		return false
	}
	tok, rest, ok := bytes.Cut(rest, []byte(`,"index":`))
	seq, spelled := uintToken(tok)
	if !ok || !spelled {
		return false
	}
	tok, rest, ok = bytes.Cut(rest, []byte(`,"point":`))
	index, spelled := uintToken(tok)
	if !ok || !spelled || index >= uint64(len(s.wire)) {
		return false
	}
	rest, ok = bytes.CutPrefix(rest, s.wire[index])
	if !ok {
		return false
	}
	result, ok := bytes.CutPrefix(rest, []byte(`,"result":`))
	// R must be an object: json.Decoder reads "result":null as a frame
	// without a result.
	if !ok || len(result) == 0 || result[0] != '{' {
		return false
	}
	result, ok = bytes.CutSuffix(result, []byte("}"))
	res := new(sdpolicy.Result)
	if !ok || res.UnmarshalJSON(result) != nil {
		return false
	}
	i := int(index)
	*f = streamFrame{Seq: seq, Index: &i, Result: res}
	return true
}

// uintToken parses tok if it spells a uint64 as json.Marshal does: no
// sign, no leading zero, no fraction or exponent.
func uintToken(tok []byte) (uint64, bool) {
	n, err := strconv.ParseUint(string(tok), 10, 64)
	var spell [20]byte
	return n, err == nil && bytes.Equal(strconv.AppendUint(spell[:0], n, 10), tok)
}

// workerVerdict classifies a failed shard create or attach. A 400 or
// 413 is deterministic — every worker would reject the same points —
// so it fails the campaign. 429/503 mean the worker is up but refusing
// work (slot exhaustion, shutdown drain, standby): requeue and keep
// probing, it usually clears in seconds. Anything else (transport
// errors, 5xx, proxies) retires the worker to the prober.
func workerVerdict(err error) shardVerdict {
	switch httpStatus(err) {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
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
// whole within journal.MaxIDLen.
func shardID(campaignID string) string {
	suffix := newCampaignID()
	if keep := journal.MaxIDLen - len(suffix) - 1; len(campaignID) > keep {
		campaignID = campaignID[:keep]
	}
	return campaignID + "." + suffix
}

// cancelShard DELETEs an abandoned shard resource. Best-effort: a dead
// worker has nothing left to cancel.
func (c *coordinator) cancelShard(workerURL, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
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
