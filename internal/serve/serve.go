// Package serve implements the sdserve HTTP API: a thin, cache-backed
// front-end over the sdpolicy campaign engine. Handlers are plain
// net/http so cmd/sdserve stays a wiring-only main and tests can drive
// the full API through httptest.
//
// Endpoints:
//
//	POST /v1/simulate  one simulation point  -> the full Result
//	GET  /v1/experiments          list the experiment registry with
//	                              parameter descriptions
//	POST /v1/experiments          create an experiment resource (body
//	                              names the experiment + params) -> 201 +
//	                              Location; backed by a journaled campaign
//	GET  /v1/experiments/{id}     attach to the experiment's reduced
//	                              stream: incremental rows + terminal
//	                              summary (SSE or NDJSON, ?from= cursor)
//	DELETE /v1/experiments/{id}   cancel the experiment's campaign
//	POST /v1/campaigns            create a campaign resource -> 201 +
//	                              Location; runs detached from any client
//	                              ("reports" puts each point's per-job
//	                              report in its result frame, "trace"
//	                              adds a trace frame)
//	GET  /v1/campaigns/{id}       attach to (or resume, ?from=<seq>) the
//	                              campaign's stream (SSE or NDJSON)
//	GET  /v1/campaigns/{id}/status  compact JSON progress
//	DELETE /v1/campaigns/{id}     cancel the campaign
//	GET  /v1/workloads[/{ref}]    list / describe addressable workloads
//	POST /v1/workers/register    announce a worker to a coordinator's
//	                             fleet / renew its heartbeat lease
//	POST /v1/workers/deregister  remove a registered worker
//	GET  /healthz      liveness + in-flight, cache and pool statistics;
//	                   on a coordinator, per-peer fleet state too
//
// Error replies on every /v1/* endpoint share the JSON envelope
// {"error":{"code","message","campaign_id"}} (see errors.go).
// /v1/campaigns is the one campaign protocol: clients create and attach
// to resources, and a coordinator drives each shard the same way on its
// workers (coordinator.go). With EnableJournal the campaign resources
// are write-ahead journaled (resumable across restarts and coordinator
// failover — campaigns.go); until Activate is called such an instance
// is a standby and refuses campaign work with 503.
//
// Every simulation goes through one shared Engine, so concurrent
// requests for the same canonical point coalesce into a single run and
// repeated requests are served from the result cache. A semaphore
// bounds the number of simulate requests and campaign runners
// simulating at once; the excess queues until a slot frees. DELETE on
// a campaign cancels it — including the simulation point in flight,
// which aborts at its next event-loop checkpoint — so the slot frees
// within milliseconds rather than after the point completes.
// BeginShutdown ends open streams with a shutdown frame instead of
// cutting the connection.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sdpolicy"
	"sdpolicy/internal/journal"
	"sdpolicy/internal/telemetry"
)

// Server handles the sdserve API on top of a shared campaign engine.
type Server struct {
	engine *sdpolicy.Engine
	// slots bounds in-flight simulate requests and campaign runners
	// (not connections): acquire to simulate, release when done.
	slots chan struct{}
	// campaigns counts campaign runners holding a slot, reported by
	// /healthz.
	campaigns atomic.Int64
	// shutdown is closed by BeginShutdown so streaming handlers can
	// finish their response with a terminal event.
	shutdown     chan struct{}
	shutdownOnce sync.Once
	// coord, when non-nil, makes campaigns fan out to a fleet of worker
	// sdserve instances instead of the local engine.
	coord *coordinator
	// resources is the campaign resource registry behind /v1/campaigns;
	// journal, when non-nil, makes those resources durable. active
	// gates the whole campaign plane: true from construction unless
	// EnableJournal demotes the instance to standby, after which
	// Activate (holding the coordinator lease) re-opens it.
	resources *campaignRegistry
	journal   *journal.Journal
	active    atomic.Bool
}

// New builds a Server over the engine, allowing at most maxInflight
// requests to simulate concurrently (<= 0 means 16).
func New(engine *sdpolicy.Engine, maxInflight int) *Server {
	if maxInflight <= 0 {
		maxInflight = 16
	}
	s := &Server{
		engine:    engine,
		slots:     make(chan struct{}, maxInflight),
		shutdown:  make(chan struct{}),
		resources: newCampaignRegistry(),
	}
	s.active.Store(true)
	return s
}

// CoordinatorConfig shapes a coordinator's fleet behaviour; the zero
// value of every field means its documented default.
type CoordinatorConfig struct {
	// Workers are the statically configured peer base URLs (-peers).
	// May be empty: an elastic fleet can be populated entirely by
	// dynamic registration (/v1/workers/register, sdserve -join).
	Workers []string
	// Client performs fan-out and probe requests; nil means a default
	// timeout-free client (campaign cancellation flows through request
	// contexts, probes bound themselves).
	Client *http.Client
	// ShardsPerWorker is the planning granularity: the campaign is cut
	// into ShardsPerWorker shards per fleet member and handed out
	// work-stealing style. <= 0 means sdpolicy.DefaultShardsPerWorker.
	ShardsPerWorker int
	// ProbeInterval is the background health prober's tick (default
	// 1s).
	ProbeInterval time.Duration
	// LeaseTTL is the default heartbeat lease granted to registering
	// workers (default 30s); a worker that stops renewing is dropped
	// once its lease expires.
	LeaseTTL time.Duration
}

// EnableCoordinator switches campaigns (and the experiments built on
// them) to coordinator mode: rather than simulating locally, campaigns
// are planned into fine-grained shards (ShardsPerWorker per fleet
// member), each created as a /v1/campaigns resource on a worker taken
// work-stealing style from the fleet, and re-merged — with a failed
// worker's unresolved points requeued and the worker itself
// health-probed back into rotation, so a restart is absorbed instead of
// permanent. It also enables the dynamic registration API
// (/v1/workers/register, /v1/workers/deregister) and starts the
// background prober, which runs until BeginShutdown. /v1/simulate keeps
// using the local engine. Call before serving requests.
func (s *Server) EnableCoordinator(cfg CoordinatorConfig) error {
	coord, err := newCoordinator(cfg, s.engine)
	if err != nil {
		return err
	}
	s.coord = coord
	if s.journal != nil {
		coord.peers.setPersist(s.persistPeers)
	}
	go coord.probeLoop(s.shutdown)
	return nil
}

// Handler returns the routed API handler. Every route is wrapped in
// the request-count/latency middleware; /metrics exposes the
// process-wide telemetry registry in the Prometheus text format.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/simulate", instrument("/v1/simulate", s.handleSimulate))
	mux.HandleFunc("/v1/experiments", instrument("/v1/experiments", s.handleExperiments))
	mux.HandleFunc("/v1/experiments/{id}", instrument("/v1/experiments/{id}", s.handleExperimentByID))
	mux.HandleFunc("/v1/workloads", instrument("/v1/workloads", s.handleWorkloads))
	mux.HandleFunc("/v1/workloads/{ref}", instrument("/v1/workloads/{ref}", s.handleWorkloadByRef))
	mux.HandleFunc("/v1/campaigns", instrument("/v1/campaigns", s.handleCampaigns))
	mux.HandleFunc("/v1/campaigns/{id}", instrument("/v1/campaigns/{id}", s.handleCampaignByID))
	mux.HandleFunc("/v1/campaigns/{id}/status", instrument("/v1/campaigns/{id}/status", s.handleCampaignStatus))
	mux.HandleFunc("/v1/workers/register", instrument("/v1/workers/register", s.handleRegister))
	mux.HandleFunc("/v1/workers/deregister", instrument("/v1/workers/deregister", s.handleDeregister))
	mux.HandleFunc("/healthz", instrument("/healthz", s.handleHealth))
	mux.Handle("/metrics", telemetry.Default.Handler())
	return mux
}

// BeginShutdown tells the campaign plane the server is going away:
// every campaign runner stops without a terminal frame (so a journaled
// campaign resumes on the next activation), and each open attach
// stream writes a shutdown frame and completes its response, so a
// subsequent http.Server.Shutdown drains promptly instead of hanging on
// long-lived streams until the grace period cuts them. Safe to call
// more than once.
func (s *Server) BeginShutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

// SimulateRequest is the /v1/simulate body: one campaign point in the
// shared wire form, the same loose fields every result echoes. Scale
// and Seed default to 1; Options defaults to the static baseline under
// the ideal model; MalleableFraction, when present, re-flags that
// fraction of jobs malleable before simulating. Unknown fields are a
// 400.
type SimulateRequest = sdpolicy.PointSpec

// Health is the /healthz reply.
type Health struct {
	Status string `json:"status"`
	// Version, Go, Built and Revision identify the running binary (see
	// BuildInfo), so a fleet rollout is diagnosable from /healthz alone.
	Version  string `json:"version"`
	Go       string `json:"go"`
	Built    string `json:"built,omitempty"`
	Revision string `json:"revision,omitempty"`
	// Role reports failover state on journal-backed instances: "active"
	// once the coordinator lease is held and the campaign plane serves,
	// "standby" while waiting to adopt it. Absent without -journal-dir.
	Role    string `json:"role,omitempty"`
	Workers int    `json:"workers"`
	// InFlight is how many requests and campaign runners currently hold
	// a simulation slot; CampaignsInFlight how many of them are campaign
	// runners.
	InFlight          int    `json:"in_flight"`
	CampaignsInFlight int64  `json:"campaigns_in_flight"`
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	// Peers reports per-peer fleet state — static and registered
	// workers alike, with alive|dead|probing state, consecutive failure
	// counts, last error, and remaining heartbeat lease — when this
	// instance runs as a campaign coordinator; empty otherwise.
	Peers []PeerStatus `json:"peers,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.decode(w, r, &req, nil) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.acquire(w, r.Context()) {
		return
	}
	defer s.release()
	res, err := s.engine.SimulatePoint(r.Context(), req.Point())
	if err != nil {
		writeError(w, statusFor(r.Context(), err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet, "", errors.New("use GET"))
		return
	}
	hits, misses := s.engine.CacheStats()
	build := BuildInfo()
	h := Health{
		Status:            "ok",
		Version:           build.Version,
		Go:                build.Go,
		Built:             build.Built,
		Revision:          build.Revision,
		Workers:           s.engine.Workers(),
		InFlight:          len(s.slots),
		CampaignsInFlight: s.campaigns.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
	}
	if s.journal != nil {
		if s.active.Load() {
			h.Role = "active"
		} else {
			h.Role = "standby"
		}
	}
	if s.coord != nil {
		h.Peers = s.coord.peers.snapshot()
	}
	writeJSON(w, http.StatusOK, h)
}

// decode enforces POST + JSON and fills dst from a body that holds one
// JSON value and nothing after it, replying on failure: 413 past the
// 1 MiB cap, else 400. A missing Content-Type is tolerated (historical
// clients omit it); a present one must name JSON. Given fast, the body
// is read whole first, and if fast fills dst from it that is all; else
// the decoder reads the same bytes, then the error that ended the read
// (the limited reader repeats it).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any, fast func(body []byte) bool) bool {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost, "", errors.New("use POST"))
		return false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			writeError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("unsupported Content-Type %q: want application/json", ct))
			return false
		}
	}
	var body io.Reader = http.MaxBytesReader(w, r.Body, 1<<20)
	if fast != nil {
		b, err := io.ReadAll(body)
		if err == nil && fast(b) {
			return true
		}
		body = io.MultiReader(bytes.NewReader(b), body)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		// Refuse trailing data (a second value, say) rather than act on
		// the first value alone.
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			return true
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("bad request body: %w", err))
	return false
}

// acquire takes a simulation slot, waiting until one frees, the client
// disconnects, or the server begins shutdown (a request still queueing
// then has not produced any output, so a plain 503 — rather than a
// streamed terminal event — is the right refusal and lets Shutdown
// drain promptly). It replies and returns false on failure.
func (s *Server) acquire(w http.ResponseWriter, ctx context.Context) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		writeError(w, http.StatusServiceUnavailable, errors.New("cancelled while waiting for a simulation slot"))
		return false
	case <-s.shutdown:
		writeError(w, http.StatusServiceUnavailable, errors.New("server shutting down"))
		return false
	}
}

func (s *Server) release() { <-s.slots }

// statusFor maps a campaign error to an HTTP status: client
// cancellation to 503, invalid inputs (unknown workload, policy,
// model, out-of-range parameters — anything tagged ErrBadInput) to
// 400.
func statusFor(ctx context.Context, err error) int {
	if ctx.Err() != nil {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, sdpolicy.ErrBadInput) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
