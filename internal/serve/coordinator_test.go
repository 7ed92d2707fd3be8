package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdpolicy"
)

// coordCampaignBody is a fixed-seed campaign exercising everything the
// fan-out must preserve: duplicate points (the shared static baseline),
// a legacy malleable_fraction spelling, a derivation chain, and a
// distinct seed.
const coordCampaignBody = `{"points":[
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}},
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
	{"workload":"wl5","scale":0.15,"seed":1,"malleable_fraction":0.5,"options":{"policy":"sd"}},
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd"},
	 "derivations":[{"op":"tag_nodes","fraction":0.5,"feature":"bigmem"},
	                {"op":"require_feature","fraction":0.3,"feature":"bigmem"}]},
	{"workload":"wl5","scale":0.15,"seed":2,"options":{"policy":"oversubscribe"}}
]}`

// coordReferenceResults runs the same campaign on a local engine.
func coordReferenceResults(t *testing.T) []*sdpolicy.Result {
	t.Helper()
	var req CreateCampaignRequest
	if err := json.Unmarshal([]byte(coordCampaignBody), &req); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sdpolicy.NewEngine(4, 64).Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// startWorkers launches n worker sdserve instances, each with its own
// engine (separate-process stand-ins), returning their base URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(New(sdpolicy.NewEngine(2, 64), 4).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// startCoordinator launches a coordinator sdserve over the workers.
// The probe interval is an hour — effectively disabling the health
// prober — so these tests exercise the PR 4 fan-out semantics (a dead
// worker stays dead for the campaign); the elastic behaviours get
// their own coverage with short intervals in elastic_test.go.
func startCoordinator(t *testing.T, workerURLs []string) *httptest.Server {
	t.Helper()
	srv, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       workerURLs,
		ProbeInterval: time.Hour,
	})
	return srv
}

// startCoordinatorCfg launches a coordinator with full config control,
// returning the underlying Server too. BeginShutdown is registered as
// cleanup so the background prober never outlives the test.
func startCoordinatorCfg(t *testing.T, cfg CoordinatorConfig) (*httptest.Server, *Server) {
	t.Helper()
	s := New(sdpolicy.NewEngine(1, 64), 4)
	if err := s.EnableCoordinator(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.BeginShutdown)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s
}

// runCoordinatorCampaign runs the fixed campaign and returns the
// per-position results.
func runCoordinatorCampaign(t *testing.T, url string) []*sdpolicy.Result {
	t.Helper()
	return runCampaign(t, url, coordCampaignBody, 6)
}

// runCampaign creates a campaign of n points and returns the
// per-position results, asserting the stream's shape: each index
// exactly once, then one done frame counting n points.
func runCampaign(t *testing.T, url, body string, n int) []*sdpolicy.Result {
	t.Helper()
	frames := campaignFrames(t, url, "", body)
	last := frames[len(frames)-1]
	if !last.done() || last.Points != n {
		t.Fatalf("terminal frame %+v, want done with %d points", last, n)
	}
	results := make([]*sdpolicy.Result, n)
	for _, f := range frames[:len(frames)-1] {
		if f.Index == nil || f.Result == nil {
			t.Fatalf("malformed result frame %+v", f)
		}
		if results[*f.Index] != nil {
			t.Fatalf("index %d streamed twice", *f.Index)
		}
		results[*f.Index] = f.Result
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("index %d never streamed", i)
		}
	}
	return results
}

// expectErrorFrame asserts a campaign stream that is exactly one
// terminal error frame.
func expectErrorFrame(t *testing.T, frames []testFrame) {
	t.Helper()
	if len(frames) != 1 || frames[0].Error == nil || frames[0].Seq != 1 {
		t.Fatalf("frames %+v, want a single terminal error", frames)
	}
}

func assertResultsMatch(t *testing.T, got, want []*sdpolicy.Result) {
	t.Helper()
	for i := range want {
		gotJSON, _ := json.Marshal(got[i])
		wantJSON, _ := json.Marshal(want[i])
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("point %d: coordinator %s, local %s", i, gotJSON, wantJSON)
		}
	}
}

// TestCoordinatorMatchesLocalRun: a campaign fanned out across three
// workers re-merges into exactly the single-process results.
func TestCoordinatorMatchesLocalRun(t *testing.T) {
	coord := startCoordinator(t, startWorkers(t, 3))
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
}

// TestCoordinatorSurvivesDeadWorker: one worker is down before the
// campaign starts; its shard requeues to the survivors and the merged
// output is unchanged.
func TestCoordinatorSurvivesDeadWorker(t *testing.T) {
	urls := startWorkers(t, 2)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // connection refused from the first dial
	coord := startCoordinator(t, append(urls, dead.URL))
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
}

// cutAfterFirstResult wraps a worker's ResponseWriter and kills the
// connection right after the first streamed frame — the mid-campaign
// worker crash.
type cutAfterFirstResult struct {
	http.ResponseWriter
	lines int
}

func (c *cutAfterFirstResult) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	for _, b := range p[:n] {
		if b == '\n' {
			c.lines++
		}
	}
	if c.lines >= 1 {
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (c *cutAfterFirstResult) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestCoordinatorSurvivesMidStreamWorkerCrash: a worker that dies after
// delivering part of its shard is retired, the already-delivered
// results are not duplicated, and the unresolved remainder completes on
// the survivors — output still identical to a local run.
func TestCoordinatorSurvivesMidStreamWorkerCrash(t *testing.T) {
	urls := startWorkers(t, 2)
	flakyInner := New(sdpolicy.NewEngine(2, 64), 4).Handler()
	var flakyShards atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/campaigns/") {
			flakyShards.Add(1)
			w = &cutAfterFirstResult{ResponseWriter: w}
		}
		flakyInner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	coord := startCoordinator(t, append(urls, flaky.URL))
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	if flakyShards.Load() != 1 {
		t.Fatalf("crashed worker streamed %d shards, want exactly 1 (marked dead after the crash)", flakyShards.Load())
	}
}

// TestCoordinatorAllWorkersDead: with no survivors the stream ends in a
// terminal error event, not a hang.
func TestCoordinatorAllWorkersDead(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()
	coord := startCoordinator(t, []string{dead.URL})
	expectErrorFrame(t, campaignFrames(t, coord.URL, "", coordCampaignBody))
}

// TestCoordinatorPropagatesDeterministicErrors: a failure every worker
// would reproduce (unknown workload) aborts the campaign instead of
// burning through the fleet with retries.
func TestCoordinatorPropagatesDeterministicErrors(t *testing.T) {
	urls := startWorkers(t, 2)
	coord := startCoordinator(t, urls)
	expectErrorFrame(t, campaignFrames(t, coord.URL, "", `{"points":[{"workload":"wl-nope","options":{}}]}`))
}

// TestCoordinatorHealthListsPeers: /healthz advertises the fleet with
// per-peer state.
func TestCoordinatorHealthListsPeers(t *testing.T) {
	urls := startWorkers(t, 2)
	coord := startCoordinator(t, urls)
	resp, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if len(h.Peers) != 2 {
		t.Fatalf("healthz peers %v, want the 2 workers", h.Peers)
	}
	for _, p := range h.Peers {
		if p.Source != "static" || p.State != "alive" {
			t.Fatalf("static configured peer reported %+v, want alive static", p)
		}
	}
}

// TestEnableCoordinatorRejectsBadURLs: misconfiguration fails at
// startup, not on the first campaign. An empty static list is NOT a
// misconfiguration any more — the fleet can be populated entirely by
// registration — but a campaign against the still-empty fleet fails
// in-band.
func TestEnableCoordinatorRejectsBadURLs(t *testing.T) {
	for _, urls := range [][]string{
		{"not a url"},
		{"ftp://example.com"},
		{"http://"},
	} {
		s := New(sdpolicy.NewEngine(1, 0), 1)
		if err := s.EnableCoordinator(CoordinatorConfig{Workers: urls, ProbeInterval: time.Hour}); err == nil {
			t.Fatalf("EnableCoordinator(%v) accepted", urls)
		}
	}
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: time.Hour})
	expectErrorFrame(t, campaignFrames(t, coord.URL, "", coordCampaignBody))
}

// TestCoordinatorCancelPropagatesToShards: DELETE on a coordinator
// campaign cancels the shard resources it has in flight on its workers,
// so the worker stops simulating points nobody will read.
func TestCoordinatorCancelPropagatesToShards(t *testing.T) {
	engine := sdpolicy.NewEngine(1, 0) // sequential: shards take seconds
	inner := New(engine, 4).Handler()
	var mu sync.Mutex
	var shards []string
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns" {
			mu.Lock()
			shards = append(shards, r.Header.Get("X-Campaign-ID"))
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	coord := startCoordinator(t, []string{worker.URL})

	const points = 10
	id := createCampaign(t, coord.URL, "cxl-fleet", slowPointsBody(points, 1, 0.5))
	resp, err := http.Get(coord.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !bufio.NewScanner(resp.Body).Scan() {
		t.Fatal("no first result")
	}
	if code := deleteCampaign(t, coord.URL, id); code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", code)
	}
	waitCampaignState(t, coord.URL, id, campaignCancelled)

	mu.Lock()
	ids := append([]string(nil), shards...)
	mu.Unlock()
	cancelled := 0
	for _, shard := range ids {
		if !strings.HasPrefix(shard, id+".") {
			t.Fatalf("worker-side ID %q lacks the campaign prefix %q", shard, id+".")
		}
		switch st := waitCampaignState(t, worker.URL, shard, campaignDone, campaignCancelled); st.State {
		case campaignCancelled:
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatalf("no shard of %v was cancelled on the worker", ids)
	}
	if _, misses := engine.CacheStats(); misses >= points {
		t.Fatalf("worker simulated all %d points despite the cancel", misses)
	}
}

// FuzzShardStream serves arbitrary bytes as a worker's attach stream to
// runShard for a shard of three positions. runShard must not panic; it
// may emit only the shard's positions, each at most once; the remainder
// it returns plus the positions it emitted must be the whole shard; and
// it may return verdictOK only after a done frame, with every position
// delivered. The seeds are a clean stream, a torn last line, a
// duplicate index, an out-of-range index, a report frame before its
// result and a shutdown frame.
func FuzzShardStream(f *testing.F) {
	shard := []int{1, 3, 4}
	// One fake worker serves every input, as a fuzz process runs its
	// inputs one at a time: a server per input is ten times slower.
	var stream atomic.Pointer[[]byte]
	var attached atomic.Bool
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			w.WriteHeader(http.StatusCreated)
			io.WriteString(w, `{"id":"s"}`)
		case http.MethodGet:
			attached.Store(true)
			w.Write(*stream.Load())
		}
	}))
	f.Cleanup(worker.Close)
	c, err := newCoordinator(CoordinatorConfig{Client: worker.Client()}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A copy: a handler cut off mid-write may still read it after
		// this input returns, when the engine reuses data.
		body := bytes.Clone(data)
		stream.Store(&body)
		attached.Store(false)
		updates := make(chan sdpolicy.PointResult, len(shard))
		st := &fanout{points: make([]sdpolicy.Point, 5), updates: updates,
			received: make([]bool, 5), reported: make([]bool, 5)}
		rem, err, verdict := c.runShard(context.Background(), worker.URL, shardJob{positions: shard}, st, false)
		close(updates)
		if !attached.Load() {
			t.Fatalf("runShard never attached to the stream: %v", err)
		}
		emitted := make(map[int]bool)
		for u := range updates {
			if !slices.Contains(shard, u.Index) || emitted[u.Index] {
				t.Fatalf("emitted position %d outside shard %v or twice", u.Index, shard)
			}
			emitted[u.Index] = true
		}
		whole := slices.Clone(rem.positions)
		for pos := range emitted {
			whole = append(whole, pos)
		}
		if slices.Sort(whole); !slices.Equal(whole, shard) {
			t.Fatalf("remainder %v plus emitted %v is not shard %v", rem.positions, emitted, shard)
		}
		if verdict == verdictOK && (err != nil || len(emitted) != len(shard) || !holdsDone(data)) {
			t.Fatalf("verdictOK (err %v) with %d of %d positions emitted", err, len(emitted), len(shard))
		}
	})
}

// holdsDone reports whether a done frame precedes the first line of
// stream that does not decode.
func holdsDone(stream []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(stream))
	for {
		var f struct{ Done bool }
		if dec.Decode(&f) != nil {
			return false
		}
		if f.Done {
			return true
		}
	}
}
