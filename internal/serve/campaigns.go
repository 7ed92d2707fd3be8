package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"sdpolicy"
	"sdpolicy/internal/journal"
	"sdpolicy/internal/reducer"
)

// Resource-oriented campaigns, the one campaign protocol — spoken by
// clients and by a coordinator to its workers alike: POST /v1/campaigns
// creates a campaign that runs detached from any client connection, GET
// /v1/campaigns/{id} attaches to its stream — resumable from any frame
// via the ?from=<seq> cursor, since every frame carries a monotonic seq
// — and DELETE cancels it. Frames are buffered in memory (and, with
// EnableJournal, write-ahead journaled), so a client that disconnects
// mid-stream reattaches with ?from= and misses nothing, and a
// journal-backed server that restarts — or a standby that adopts the
// journal after coordinator failover — replays the exact frames already
// emitted and finishes only the positions without a journaled result.
// The replayed prefix is byte-identical to the original stream; resumed
// frames continue its seq sequence.
//
// Retention: the registry keeps every running campaign and the
// maxTerminalCampaigns most recently finished ones. A journaled
// campaign evicted past that bound is rebuilt from its journal on its
// next lookup, byte-identically; an unjournaled one answers 404.
//
// Stream frames (SSE event name / NDJSON line):
//
//	result    {"seq":N,"index":i,"point":...,"result":...}
//	          (reports: true adds "report":<per-job report>)
//	trace     {"seq":N,"trace":true,"campaign_id":...}  (trace: true;
//	          just before the terminal frame, see TraceFrame)
//	done      {"seq":N,"done":true,"points":K}        terminal
//	error     {"seq":N,"error":{code,message,campaign_id}}  terminal
//	cancelled {"seq":N,"cancelled":true}              terminal
//	shutdown  {"shutdown":true,"error":{...}}  transport-level, no seq:
//	          the serving process is going away; reattach (elsewhere)
//	          to continue from your cursor.

// Campaign resource states, as reported by GET /v1/campaigns/{id}/status.
const (
	campaignRunning   = "running"
	campaignDone      = "done"
	campaignFailed    = "failed"
	campaignCancelled = "cancelled"
)

// maxTerminalCampaigns bounds how many finished campaigns the registry
// keeps in memory. Every coordinator shard is a campaign on its worker,
// so without a bound a long-lived worker would grow without limit.
const maxTerminalCampaigns = 64

// CreateCampaignRequest is the POST /v1/campaigns body. The stream
// encoding is chosen per attach, not per campaign.
type CreateCampaignRequest struct {
	Points []sdpolicy.PointSpec `json:"points"`
	// Reports adds each point's per-job report to its result frame, so
	// an attaching client can warm a local result cache (Engine.Prime)
	// with entries equivalent to locally simulated ones.
	Reports bool `json:"reports,omitempty"`
	// Trace adds a trace frame just before the terminal frame: where
	// the campaign's wall-clock went, per shard and per peer.
	Trace bool `json:"trace,omitempty"`
}

// CreateCampaignResponse is the 201 body; the Location header carries
// the same resource path.
type CreateCampaignResponse struct {
	ID string `json:"id"`
}

// CampaignStatus is the GET /v1/campaigns/{id}/status reply.
type CampaignStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // running | done | failed | cancelled
	// Points is the campaign's size; Completed how many have a result
	// frame; Seq the last emitted frame's sequence number (an attach
	// cursor of Seq skips everything already seen).
	Points    int    `json:"points"`
	Completed int    `json:"completed"`
	Seq       uint64 `json:"seq"`
	// CancelRequested is set between DELETE and the cancellation
	// actually landing (typically milliseconds later).
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Error carries the terminal failure message when State is failed.
	Error string `json:"error,omitempty"`
}

// frame is one emitted stream frame: the exact bytes every attacher
// (and the journal) sees. frames[i].seq == i+1 always, so the ?from=
// cursor is an index into the slice.
type frame struct {
	seq   uint64
	event string
	data  json.RawMessage
}

// terminalEvent mirrors journal.TerminalKind for frame event names.
func terminalEvent(event string) bool { return journal.TerminalKind(event) }

// campaignState is one campaign resource. The mutex guards frames,
// state, completed, cancelRequested and errMsg; frames are appended by
// exactly one goroutine (the campaign runner), while any number of
// attached streams read them.
type campaignState struct {
	id      string
	points  []sdpolicy.Point
	reports bool
	trace   bool
	// experiment, when non-empty, names the registry experiment this
	// campaign backs; expParams is its resolved parameter set, used to
	// build a fresh fold instance per /v1/experiments/{id} attach.
	experiment string
	expParams  reducer.Params
	// begin is when the (most recent) runner started, for the
	// experiment duration histogram.
	begin time.Time

	mu        sync.Mutex
	frames    []frame
	state     string
	completed int
	errMsg    string
	// wake is closed and replaced on every append; attachers wait on it.
	wake chan struct{}
	// cancel aborts the running campaign (nil once recovered terminal).
	cancel          context.CancelFunc
	cancelRequested bool
	// w journals every appended frame; nil without EnableJournal.
	w *journal.Writer
}

func newCampaignState(id string, points []sdpolicy.Point, reports, trace bool) *campaignState {
	return &campaignState{
		id:      id,
		points:  points,
		reports: reports,
		trace:   trace,
		state:   campaignRunning,
		wake:    make(chan struct{}),
	}
}

func (cs *campaignState) statusLocked() CampaignStatus {
	st := CampaignStatus{
		ID:              cs.id,
		State:           cs.state,
		Points:          len(cs.points),
		Completed:       cs.completed,
		CancelRequested: cs.cancelRequested,
		Error:           cs.errMsg,
	}
	if n := len(cs.frames); n > 0 {
		st.Seq = cs.frames[n-1].seq
	}
	return st
}

func (cs *campaignState) status() CampaignStatus {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.statusLocked()
}

// campaignRegistry maps campaign IDs to their states.
type campaignRegistry struct {
	mu   sync.Mutex
	byID map[string]*campaignState
	// finished lists the terminal campaigns still in byID, oldest
	// first: the eviction order.
	finished []string
}

func newCampaignRegistry() *campaignRegistry {
	return &campaignRegistry{byID: make(map[string]*campaignState)}
}

// add inserts cs unless the ID is taken; reports whether it won.
func (cr *campaignRegistry) add(cs *campaignState) bool {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if _, dup := cr.byID[cs.id]; dup {
		return false
	}
	cr.byID[cs.id] = cs
	return true
}

func (cr *campaignRegistry) get(id string) *campaignState {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.byID[id]
}

func (cr *campaignRegistry) remove(id string) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	delete(cr.byID, id)
}

// retire records that a campaign reached its terminal frame, evicting
// the oldest finished campaigns past maxTerminalCampaigns. Attaches in
// progress keep their campaign; only later lookups miss it.
func (cr *campaignRegistry) retire(id string) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.finished = append(cr.finished, id)
	for len(cr.finished) > maxTerminalCampaigns {
		delete(cr.byID, cr.finished[0])
		cr.finished = cr.finished[1:]
	}
}

// EnableJournal makes every /v1/campaigns resource write-ahead
// journaled in j and demotes the instance to standby: the campaign
// plane (campaign and experiment resources) answers 503 until
// Activate is called — by cmd/sdserve, once it holds the journal
// directory's coordinator lease. Call before EnableCoordinator and
// before serving requests.
func (s *Server) EnableJournal(j *journal.Journal) {
	s.journal = j
	s.active.Store(false)
	mLeaseHeld.Set(0)
	if s.coord != nil {
		s.coord.peers.setPersist(s.persistPeers)
	}
}

// persistPeers is the peer set's membership hook: it spills the
// registered-worker table into the journal directory so a standby
// adopts the fleet along with the campaigns. Standbys don't persist —
// only the lease holder owns peers.json.
func (s *Server) persistPeers(urls []string) {
	if !s.active.Load() {
		return
	}
	if err := s.journal.SavePeers(urls); err != nil {
		slog.Error("journal: persisting peer table", "err", err)
	}
}

// ActivationStats summarises what Activate adopted.
type ActivationStats struct {
	// AdoptedPeers is how many persisted workers re-entered the fleet.
	AdoptedPeers int
	// Resumed counts incomplete journaled campaigns restarted;
	// SkippedPoints their already-journaled results not re-dispatched.
	// Completed counts terminal journaled campaigns loaded read-only
	// (attachable and replayable, nothing to run).
	Resumed       int
	SkippedPoints int
	Completed     int
}

// Activate opens the campaign plane on a journal-backed instance: it
// adopts the persisted peer table into the coordinator's fleet,
// recovers every journaled campaign (terminal ones become attachable
// replays; incomplete ones resume, dispatching only positions without
// a journaled result), and starts answering campaign requests. The
// caller must hold the journal directory's coordinator lease — that is
// what makes exactly one instance active. Safe to call on an instance
// without EnableJournal (it just marks the plane active).
func (s *Server) Activate() ActivationStats {
	var stats ActivationStats
	if s.journal == nil {
		s.active.Store(true)
		return stats
	}
	if s.coord != nil {
		urls, err := s.journal.LoadPeers()
		if err != nil {
			slog.Error("journal: loading persisted peer table", "err", err)
		}
		for _, u := range urls {
			if _, err := s.coord.peers.register(u, s.coord.leaseTTL); err != nil {
				slog.Warn("journal: adopted peer rejected", "peer", u, "err", err)
				continue
			}
			stats.AdoptedPeers++
		}
	}
	s.recover(&stats)
	s.active.Store(true)
	mAdoptions.Inc()
	mLeaseHeld.Set(1)
	slog.Info("journal: campaign plane active",
		"adopted_peers", stats.AdoptedPeers, "resumed", stats.Resumed,
		"skipped_points", stats.SkippedPoints, "completed", stats.Completed)
	return stats
}

// recover loads every journaled campaign into the registry, restarting
// incomplete ones from their checkpoint sets. A journal that cannot be
// recovered is logged and skipped — one corrupt campaign must not keep
// a failover standby from adopting the rest.
func (s *Server) recover(stats *ActivationStats) {
	ids, err := s.journal.List()
	if err != nil {
		slog.Error("journal: listing campaigns", "err", err)
		return
	}
	for _, id := range ids {
		if s.resources.get(id) != nil {
			continue
		}
		cs, skipped, err := s.adopt(id)
		switch {
		case err != nil:
			slog.Error("journal: skipping unrecoverable campaign", "campaign_id", id, "err", err)
		case skipped < 0:
			stats.Completed++
		case cs != nil:
			stats.Resumed++
			stats.SkippedPoints += skipped
		}
	}
}

// adopt loads one journaled campaign into the registry: a terminal one
// as an attachable replay (subject to the retention bound), an
// incomplete one resumed, dispatching only the positions without a
// journaled result. It returns the registered campaign and how many of
// its points the journal already held, or -1 for a terminal campaign.
// A nil campaign with a nil error means a concurrent adopt won.
func (s *Server) adopt(id string) (*campaignState, int, error) {
	cs, remaining, resume, err := s.recoverCampaign(id)
	if err != nil {
		return nil, 0, err
	}
	if !s.resources.add(cs) {
		if cs.w != nil {
			cs.w.Close()
		}
		return nil, 0, nil
	}
	if !resume {
		s.resources.retire(id)
		return cs, -1, nil
	}
	skipped := len(cs.points) - len(remaining)
	mCampaignsResumed.Inc()
	mResumeSkipped.Add(uint64(skipped))
	slog.Info("journal: resuming campaign",
		"campaign_id", id, "points", len(cs.points), "remaining", len(remaining))
	s.startCampaign(cs, remaining)
	return cs, skipped, nil
}

// recoverCampaign rebuilds one campaign from its journal: the create
// record restores the point list, every later record becomes a
// replayable frame, and the result records form the checkpoint set.
// resume is false for terminal campaigns (remaining is nil); otherwise
// remaining holds the positions the restarted run must dispatch.
func (s *Server) recoverCampaign(id string) (cs *campaignState, remaining []int, resume bool, err error) {
	recs, err := s.journal.Read(id)
	if err != nil {
		return nil, nil, false, err
	}
	var req struct {
		CreateCampaignRequest
		// Experiment-backed campaigns journal two extra fields (see
		// experimentCreateRecord); plain campaigns leave them empty.
		Experiment string                     `json:"experiment"`
		Params     map[string]json.RawMessage `json:"params"`
	}
	if err := json.Unmarshal(recs[0].Data, &req); err != nil {
		return nil, nil, false, fmt.Errorf("create record: %w", err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		return nil, nil, false, fmt.Errorf("create record: %w", err)
	}
	cs = newCampaignState(id, points, req.Reports, req.Trace)
	if req.Experiment != "" {
		// Re-resolve the journaled parameters so attaches can rebuild the
		// fold. A registry drift (renamed experiment, changed parameter)
		// degrades the resource to a plain campaign rather than losing it.
		if d := sdpolicy.Experiments().Get(req.Experiment); d == nil {
			slog.Warn("journal: recovered campaign names unknown experiment; serving as plain campaign",
				"campaign_id", id, "experiment", req.Experiment)
		} else if params, err := reducer.ResolveJSON(d.Params, req.Params); err != nil {
			slog.Warn("journal: recovered experiment parameters no longer resolve; serving as plain campaign",
				"campaign_id", id, "experiment", req.Experiment, "err", err)
		} else {
			cs.experiment = req.Experiment
			cs.expParams = params
		}
	}
	var done []int
	for _, rec := range recs[1:] {
		cs.frames = append(cs.frames, frame{seq: rec.Seq, event: rec.Kind, data: rec.Data})
		switch rec.Kind {
		case journal.KindResult:
			f, err := resultFrame(rec.Data)
			if err != nil {
				return nil, nil, false, fmt.Errorf("result record %d: %w", rec.Seq, err)
			}
			done = append(done, *f.Index)
		case journal.KindDone:
			cs.state = campaignDone
		case journal.KindCancelled:
			cs.state = campaignCancelled
		case journal.KindError:
			cs.state = campaignFailed
			var v struct {
				Error ErrorDetail `json:"error"`
			}
			if json.Unmarshal(rec.Data, &v) == nil {
				cs.errMsg = v.Error.Message
			}
		}
	}
	cs.completed = len(done)
	if cs.state != campaignRunning {
		// Terminal: attachable replay, nothing to run or append.
		return cs, nil, false, nil
	}
	remaining, _, err = sdpolicy.PlanResume(points, done)
	if err != nil {
		return nil, nil, false, err
	}
	w, _, err := s.journal.Reopen(id)
	if err != nil {
		return nil, nil, false, err
	}
	cs.w = w
	return cs, remaining, true, nil
}

// handleCampaigns is the collection endpoint: POST creates a campaign
// resource and starts it detached from the request.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost, "", errors.New("use POST to create a campaign"))
		return
	}
	if !s.active.Load() {
		writeError(w, http.StatusServiceUnavailable, errStandby)
		return
	}
	var req CreateCampaignRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing points"))
		return
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := canonicalCampaignID(r.Header.Get("X-Campaign-ID"))
	cs := newCampaignState(id, points, req.Reports, req.Trace)
	if !s.resources.add(cs) {
		writeCampaignError(w, http.StatusConflict, id,
			fmt.Errorf("campaign %s already exists; attach with GET /v1/campaigns/%s", id, id))
		return
	}
	if !s.journalCreate(w, cs, req) {
		return
	}
	mCampaignsCreated.Inc()
	s.startCampaign(cs, nil)
	w.Header().Set("X-Campaign-ID", id)
	w.Header().Set("Location", "/v1/campaigns/"+id)
	writeJSON(w, http.StatusCreated, CreateCampaignResponse{ID: id})
}

// journalCreate write-ahead journals the create record for a freshly
// registered campaign: the record (the campaign's full point list, plus
// the experiment binding when there is one) lands before any work is
// dispatched, so a crash at any later instant leaves a resumable
// journal. On failure it unregisters the campaign, replies with the
// envelope, and returns false. A no-op without EnableJournal.
func (s *Server) journalCreate(w http.ResponseWriter, cs *campaignState, record any) bool {
	if s.journal == nil {
		return true
	}
	create, err := json.Marshal(record)
	if err == nil {
		cs.w, err = s.journal.Create(cs.id, create)
	}
	if err != nil {
		s.resources.remove(cs.id)
		status := http.StatusInternalServerError
		if errors.Is(err, journal.ErrExists) {
			status = http.StatusConflict
		}
		writeCampaignError(w, status, cs.id, err)
		return false
	}
	mJournalRecords.Inc()
	return true
}

// errStandby is the transient refusal while the lease is not held.
var errStandby = errors.New("standby: campaign plane inactive until the coordinator lease is acquired; retry (or try the active coordinator)")

// lookupCampaign resolves {id} for the resource endpoints, replying
// with the envelope on standby (503, transient) or unknown ID (404). A
// journaled campaign evicted from memory is rebuilt from its journal.
func (s *Server) lookupCampaign(w http.ResponseWriter, id string) *campaignState {
	if !s.active.Load() {
		writeCampaignError(w, http.StatusServiceUnavailable, id, errStandby)
		return nil
	}
	cs := s.resources.get(id)
	if cs == nil && s.journal != nil {
		if cs, _, _ = s.adopt(id); cs == nil {
			cs = s.resources.get(id)
		}
	}
	if cs == nil {
		writeCampaignError(w, http.StatusNotFound, id, fmt.Errorf("unknown campaign %s", id))
		return nil
	}
	return cs
}

// handleCampaignByID dispatches GET (attach) and DELETE (cancel).
func (s *Server) handleCampaignByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		s.handleCampaignAttach(w, r, id)
	case http.MethodDelete:
		s.handleCampaignCancel(w, r, id)
	default:
		writeMethodNotAllowed(w, "GET, DELETE", id,
			errors.New("use GET to attach or DELETE to cancel"))
	}
}

// handleCampaignStatus reports compact progress.
func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet, id, errors.New("use GET"))
		return
	}
	cs := s.lookupCampaign(w, id)
	if cs == nil {
		return
	}
	writeJSON(w, http.StatusOK, cs.status())
}

// handleCampaignCancel requests cancellation and returns the status
// snapshot: 202 while the abort is landing, 200 if already terminal
// (cancelling a finished campaign is a no-op, not an error).
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request, id string) {
	cs := s.lookupCampaign(w, id)
	if cs == nil {
		return
	}
	cs.mu.Lock()
	if cs.state != campaignRunning {
		st := cs.statusLocked()
		cs.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	cs.cancelRequested = true
	cancel := cs.cancel
	st := cs.statusLocked()
	cs.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleCampaignAttach streams the campaign's frames from the ?from=
// cursor (0 = from the beginning; pass the last seq you saw to resume
// exactly after it): first everything already buffered — for recovered
// campaigns, byte-identical journal replay — then live frames as they
// append, ending with the terminal frame (see follow).
func (s *Server) handleCampaignAttach(w http.ResponseWriter, r *http.Request, id string) {
	from, sse, ok := attachParams(w, r, id)
	if !ok {
		return
	}
	cs := s.lookupCampaign(w, id)
	if cs == nil {
		return
	}
	mCampaignAttaches.Inc()
	w.Header().Set("X-Campaign-ID", id)
	st := newStreamWriter(w, sse)
	s.follow(r.Context(), st, cs, int(from), func(f frame) bool {
		st.rawEvent(f.event, f.data)
		return terminalEvent(f.event)
	})
	st.flush()
}

// startCampaign launches the detached runner for the positions in
// remaining (nil = the whole campaign — a fresh create).
func (s *Server) startCampaign(cs *campaignState, remaining []int) {
	if remaining == nil {
		remaining = make([]int, len(cs.points))
		for i := range remaining {
			remaining[i] = i
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cs.mu.Lock()
	cs.cancel = cancel
	cs.begin = time.Now()
	cs.mu.Unlock()
	go s.runCampaign(ctx, cancel, cs, remaining)
}

// runCampaign executes the campaign detached from any request: it
// waits for a simulation slot, streams the remaining positions through
// the local engine or the coordinator fleet, appends every completion
// as a frame (journaled first), and closes with a terminal frame. On
// server shutdown it stops silently instead — no terminal frame is the
// journal's mark of an in-flight campaign, which is exactly what makes
// it resumable by the next activation.
func (s *Server) runCampaign(ctx context.Context, cancel context.CancelFunc, cs *campaignState, remaining []int) {
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.shutdown:
			cancel()
		case <-stop:
		case <-ctx.Done():
		}
	}()
	// A nil recorder records nothing, so untraced campaigns pay only nil
	// checks.
	var tr *traceRecorder
	if cs.trace {
		tr = newTraceRecorder()
	}
	if len(remaining) == 0 {
		// Every position is already journaled (the crash landed between
		// the last result and the done record): just close out.
		s.finishCampaign(cs, nil, tr)
		return
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.finishCampaign(cs, ctx.Err(), tr)
		return
	}
	defer s.release()
	s.campaigns.Add(1)
	defer s.campaigns.Add(-1)

	pts := make([]sdpolicy.Point, len(remaining))
	for i, pos := range remaining {
		pts[i] = cs.points[pos]
	}
	mode := "local"
	if s.coord != nil {
		mode = "coordinator"
	}
	begin := time.Now()
	slog.Info("campaign start", "campaign_id", cs.id, "api", "campaigns",
		"points", len(cs.points), "dispatched", len(pts), "mode", mode)
	defer func() {
		slog.Info("campaign end", "campaign_id", cs.id, "api", "campaigns",
			"mode", mode, "duration_ms", time.Since(begin).Milliseconds())
	}()

	updates := make(chan sdpolicy.PointResult, len(pts))
	errc := make(chan error, 1)
	run := func(ctx context.Context, pts []sdpolicy.Point, updates chan<- sdpolicy.PointResult) error {
		_, err := s.engine.RunStream(ctx, pts, updates)
		tr.record("local", len(pts), 0, begin, err)
		return err
	}
	if s.coord != nil {
		run = func(ctx context.Context, pts []sdpolicy.Point, updates chan<- sdpolicy.PointResult) error {
			return s.coord.run(ctx, pts, updates, cs.reports, cs.id, tr)
		}
	}
	go func() { errc <- run(ctx, pts, updates) }()
	for u := range updates {
		// u.Index is a position within pts; remaining maps it back to
		// the campaign's original position, so resumed frames carry the
		// same indices an uninterrupted run would have.
		pos := remaining[u.Index]
		if cs.reports && s.coord == nil {
			// A report holds no floats, so it always encodes.
			u.Report, _ = u.Result.ReportJSON()
		}
		s.appendResult(cs, pos, u)
	}
	s.finishCampaign(cs, <-errc, tr)
}

// finishCampaign writes the trace frame (when asked for) and the
// terminal frame for the campaign's real outcome — or, when the run was
// cut by server shutdown, nothing, leaving the journal resumable. The
// runner is the campaign's only appender, so its journal writer closes
// here on every path.
func (s *Server) finishCampaign(cs *campaignState, err error, tr *traceRecorder) {
	if cs.w != nil {
		defer func() {
			if err := cs.w.Close(); err != nil {
				slog.Error("journal close failed", "campaign_id", cs.id, "err", err)
			}
		}()
	}
	cs.mu.Lock()
	cancelled := cs.cancelRequested
	completed := cs.completed
	cs.mu.Unlock()
	if !cancelled && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		select {
		case <-s.shutdown:
			// Shutdown, not failure: stay "running" with no terminal
			// frame so the next activation resumes the campaign.
			return
		default:
			// A cancellation that is neither DELETE nor shutdown can only
			// be the runner's own teardown racing a late error; report it.
		}
	}
	if tr != nil {
		s.appendFrame(cs, journal.KindTrace, func(seq uint64) any {
			return struct {
				Seq uint64 `json:"seq"`
				TraceFrame
			}{seq, tr.frame(cs.id, completed)}
		}, nil)
	}
	switch {
	case err == nil:
		s.appendTerminal(cs, journal.KindDone, campaignDone, func(seq uint64) any {
			return struct {
				Seq    uint64 `json:"seq"`
				Done   bool   `json:"done"`
				Points int    `json:"points"`
			}{seq, true, len(cs.points)}
		})
		observeExperiment(cs, campaignDone)
	case cancelled:
		s.appendTerminal(cs, journal.KindCancelled, campaignCancelled, func(seq uint64) any {
			return struct {
				Seq       uint64 `json:"seq"`
				Cancelled bool   `json:"cancelled"`
			}{seq, true}
		})
		observeExperiment(cs, campaignCancelled)
	default:
		s.appendErrorTerminal(cs, err)
	}
}

// observeExperiment records the terminal outcome of an experiment-backed
// campaign; a no-op for plain campaigns.
func observeExperiment(cs *campaignState, outcome string) {
	if cs.experiment == "" {
		return
	}
	mExperimentsCompleted.With(cs.experiment, outcome).Inc()
	cs.mu.Lock()
	begin := cs.begin
	cs.mu.Unlock()
	if !begin.IsZero() {
		mExperimentSeconds.With(cs.experiment).Observe(time.Since(begin).Seconds())
	}
}

func (s *Server) appendErrorTerminal(cs *campaignState, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, sdpolicy.ErrBadInput) {
		status = http.StatusBadRequest
	}
	s.appendTerminal(cs, journal.KindError, campaignFailed, func(seq uint64) any {
		return struct {
			Seq   uint64      `json:"seq"`
			Error ErrorDetail `json:"error"`
		}{seq, ErrorDetail{Code: errorCode(status), Message: err.Error(), CampaignID: cs.id}}
	})
	cs.mu.Lock()
	cs.errMsg = err.Error()
	cs.mu.Unlock()
	observeExperiment(cs, campaignFailed)
}

// appendResult journals and buffers one result frame, with the
// point's per-job report when u carries one. The frame embeds its seq,
// so journal replay reproduces the bytes exactly.
func (s *Server) appendResult(cs *campaignState, pos int, u sdpolicy.PointResult) {
	s.appendFrame(cs, journal.KindResult, func(seq uint64) any {
		return struct {
			Seq    uint64           `json:"seq"`
			Index  int              `json:"index"`
			Point  sdpolicy.Point   `json:"point"`
			Result *sdpolicy.Result `json:"result"`
			Report json.RawMessage  `json:"report,omitempty"`
		}{seq, pos, cs.points[pos], u.Result, u.Report}
	}, func(cs *campaignState) { cs.completed++ })
}

func (s *Server) appendTerminal(cs *campaignState, kind, state string, payload func(seq uint64) any) {
	s.appendFrame(cs, kind, payload, func(cs *campaignState) { cs.state = state })
	s.resources.retire(cs.id)
}

// appendFrame assigns the next seq, marshals the frame, journals it
// (write-ahead: the journal sees the frame before any attacher can),
// then publishes it and wakes attached streams. apply, when non-nil,
// runs under the same lock as the publish so state and frames move
// together. Exactly one goroutine appends per campaign, which is what
// makes the lock-free seq read sound.
func (s *Server) appendFrame(cs *campaignState, kind string, payload func(seq uint64) any, apply func(*campaignState)) {
	cs.mu.Lock()
	seq := uint64(len(cs.frames)) + 1
	cs.mu.Unlock()
	data, err := json.Marshal(payload(seq))
	if err != nil {
		slog.Error("campaign frame marshal failed", "campaign_id", cs.id, "kind", kind, "err", err)
		return
	}
	if cs.w != nil {
		if err := cs.w.Append(seq, kind, data); err != nil {
			// Degrade to in-memory: the stream stays correct for attached
			// clients, durability is what's lost — and loudly.
			slog.Error("journal append failed", "campaign_id", cs.id, "err", err)
		} else {
			mJournalRecords.Inc()
		}
	}
	cs.mu.Lock()
	cs.frames = append(cs.frames, frame{seq: seq, event: kind, data: data})
	if apply != nil {
		apply(cs)
	}
	close(cs.wake)
	cs.wake = make(chan struct{})
	cs.mu.Unlock()
}
