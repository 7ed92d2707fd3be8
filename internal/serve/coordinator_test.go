package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	"sdpolicy/internal/reducer"
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

// cutAfter lets the first frames of a stream through, flushed so the
// client holds them, then aborts the connection: a process dying
// mid-stream. Every frame is one Write.
type cutAfter struct {
	http.ResponseWriter
	frames int
}

func (c *cutAfter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	if c.frames--; c.frames <= 0 {
		c.Flush()
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (c *cutAfter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// recordingWorker is a worker that records the size of each shard
// created on it; with cut, each of its attach streams is cut right
// after its first frame.
func recordingWorker(t *testing.T, cut bool) (url string, shards func() []int) {
	t.Helper()
	inner := New(sdpolicy.NewEngine(2, 64), 4).Handler()
	var mu sync.Mutex
	var sizes []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns":
			body, _ := io.ReadAll(r.Body)
			var req CreateCampaignRequest
			json.Unmarshal(body, &req)
			mu.Lock()
			sizes = append(sizes, len(req.Points))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		case cut && r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/campaigns/"):
			w = &cutAfter{ResponseWriter: w, frames: 1}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(sizes)
	}
}

func sum(ns []int) (total int) {
	for _, n := range ns {
		total += n
	}
	return total
}

// TestCoordinatorSurvivesMidStreamWorkerCrash: a worker whose stream
// dies after one result keeps that result in the campaign; a shard cut
// with points unresolved retires the worker, and the remainder
// completes on the survivors — output still identical to a local run.
func TestCoordinatorSurvivesMidStreamWorkerCrash(t *testing.T) {
	a, aShards := recordingWorker(t, false)
	b, bShards := recordingWorker(t, false)
	flaky, flakyShards := recordingWorker(t, true)
	// One shard per worker, of 3, 2 and 1 points. Listed first, the cut
	// worker usually takes the longest.
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:         []string{flaky, a, b},
		ShardsPerWorker: 1,
		ProbeInterval:   time.Hour,
	})
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	// Each cut shard delivered its first result. A one-point shard is
	// then complete and the worker steals on; a longer one retires it,
	// so only its last shard may be longer.
	cut := flakyShards()
	if len(cut) == 0 {
		t.Fatal("the cut worker got no shard")
	}
	if slices.ContainsFunc(cut[:len(cut)-1], func(n int) bool { return n != 1 }) {
		t.Fatalf("cut worker's shard sizes %v: it stole on after a cut left points unresolved", cut)
	}
	// The survivors got only the points the cut worker did not deliver.
	if got, want := sum(aShards())+sum(bShards()), 6-len(cut); got != want {
		t.Fatalf("survivors got %d points, want %d: results the cut worker delivered were dispatched again", got, want)
	}
}

// TestCoordinatorKeepsReportsThroughCut: behind a coordinator, one
// worker's streams are cut right after their first frame. Every point
// still arrives with its per-job report: in a report campaign each
// result frame carries a report that restores Daily, and big_workload,
// whose summary needs the reports, matches the local summary bytes.
func TestCoordinatorKeepsReportsThroughCut(t *testing.T) {
	healthy, _ := recordingWorker(t, false)
	flaky, flakyShards := recordingWorker(t, true)
	coord := startCoordinator(t, []string{flaky, healthy})

	t.Run("reports", func(t *testing.T) {
		body := strings.Replace(coordCampaignBody, `"points":[`, `"reports":true,"points":[`, 1)
		frames := campaignFrames(t, coord.URL, "", body)
		if last := frames[len(frames)-1]; !last.done() || len(frames) != 7 {
			t.Fatalf("%d frames ending in %+v, want 6 results and done", len(frames), last)
		}
		results := make([]*sdpolicy.Result, 6)
		for _, f := range frames[:6] {
			if f.Index == nil || f.Result == nil {
				t.Fatalf("frame %+v is not a result", f)
			}
			if err := f.Result.SetReportJSON(f.Report); err != nil {
				t.Fatalf("index %d: report %q does not decode: %v", *f.Index, f.Report, err)
			}
			if len(f.Result.Daily()) == 0 {
				t.Fatalf("index %d: the report has no daily rows", *f.Index)
			}
			results[*f.Index] = f.Result
		}
		assertResultsMatch(t, results, coordReferenceResults(t))
	})
	t.Run("big_workload", func(t *testing.T) {
		tc := experimentGoldenCase{"big_workload", reducer.Params{"scale": 0.02}}
		want := goldenSummaryBytes(t, sdpolicy.NewEngine(4, 256), tc)
		got, err := RunRemoteExperiment(context.Background(), nil, []string{coord.URL}, tc.name, tc.params, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("summary differs:\ncoordinator %s\nlocal       %s", got, want)
		}
	})
	if len(flakyShards()) == 0 {
		t.Fatal("the cut worker got no shard")
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

// TestCoordinatorFailureWaitsForAttemptsInFlight: when one worker's
// refusal fails the campaign while another worker's shard is still in
// flight, the coordinator cancels that attempt and waits for it before
// the campaign ends, so the trace frame holds a span for every attempt
// the workers saw.
func TestCoordinatorFailureWaitsForAttemptsInFlight(t *testing.T) {
	var posts atomic.Int32
	accepted := make(chan struct{})
	var acceptOnce sync.Once
	// refusing fails the campaign, once stalled holds a shard.
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		select {
		case <-accepted:
		case <-r.Context().Done():
			return
		}
		http.Error(w, "bad points", http.StatusBadRequest)
	}))
	t.Cleanup(refusing.Close)
	// stalled accepts its shard and then streams nothing until the
	// coordinator hangs up.
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			posts.Add(1)
			acceptOnce.Do(func() { close(accepted) })
			w.WriteHeader(http.StatusCreated)
			io.WriteString(w, `{"id":"s"}`)
		case http.MethodGet:
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}
	}))
	t.Cleanup(stalled.Close)
	coord := startCoordinator(t, []string{refusing.URL, stalled.URL})
	frames := campaignFrames(t, coord.URL, "", withTrace(coordCampaignBody))
	if len(frames) != 2 || !frames[0].Trace || frames[1].Error == nil {
		t.Fatalf("frames %+v, want a trace frame and a terminal error", frames)
	}
	if spans := len(frames[0].Shards); spans != int(posts.Load()) || spans != 2 {
		t.Fatalf("%d spans for %d attempts, want one for each of the two workers' attempts", spans, posts.Load())
	}
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

// TestWorkerVerdict: a refusal every worker would repeat (400, 413)
// fails the campaign, a worker that is up but refusing work (429, 503)
// keeps its place, and any other failure retires the worker.
func TestWorkerVerdict(t *testing.T) {
	refused := func(status int) error {
		return &statusError{status, fmt.Errorf("status %d", status)}
	}
	for _, c := range []struct {
		err  error
		want shardVerdict
	}{
		{refused(http.StatusBadRequest), verdictFatal},
		{refused(http.StatusRequestEntityTooLarge), verdictFatal},
		{refused(http.StatusTooManyRequests), verdictTransient},
		{refused(http.StatusServiceUnavailable), verdictTransient},
		{refused(http.StatusInternalServerError), verdictDead},
		{errors.New("connection refused"), verdictDead},
	} {
		if got := workerVerdict(c.err); got != c.want {
			t.Errorf("workerVerdict(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCoordinatorRetiresWorkerOnUndecodableResult: the coordinator
// decodes every result a worker relays into a Result, and that decode
// is its only check on a worker's output. A result frame whose result
// does not decode ends the shard with verdictDead, the worker's
// retirement, and emits nothing, so the position is requeued.
func TestCoordinatorRetiresWorkerOnUndecodableResult(t *testing.T) {
	for _, result := range []string{`{"jobs":"x"}`, `[1]`} {
		t.Run(result, func(t *testing.T) {
			worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					w.WriteHeader(http.StatusCreated)
					io.WriteString(w, `{"id":"s"}`)
					return
				}
				io.WriteString(w, `{"seq":1,"index":0,"result":`+result+"}\n"+`{"seq":2,"done":true,"points":1}`+"\n")
			}))
			t.Cleanup(worker.Close)
			c, err := newCoordinator(CoordinatorConfig{Client: worker.Client()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := newCampaignState("c", campaignTestPoints(t)[:1], nil, false, false)
			if err != nil {
				t.Fatal(err)
			}
			updates := make(chan sdpolicy.PointResult, 1)
			st := &fanout{points: cs.points, wire: cs.wire, updates: updates, received: make([]bool, 1)}
			rem, err, verdict := c.runShard(context.Background(), worker.URL, shardJob{positions: []int{0}}, st, false)
			close(updates)
			if verdict != verdictDead || err == nil {
				t.Fatalf("verdict %d (err %v), want verdictDead", verdict, err)
			}
			for u := range updates {
				t.Fatalf("position %d emitted with result %+v", u.Index, u.Result)
			}
			if !slices.Equal(rem.positions, []int{0}) {
				t.Fatalf("remainder %v, want position 0 requeued", rem.positions)
			}
		})
	}
}

// FuzzShardStream serves arbitrary bytes as a worker's attach stream to
// runShard for a shard of three positions, once for a campaign without
// reports and once for a report campaign. runShard must not panic; it
// may emit only the shard's positions, each at most once, with a report
// exactly when the campaign asks for reports; the remainder it returns
// plus the positions it emitted must be the whole shard; and it may
// return verdictOK only after a done frame, with every position
// delivered. Reading the bytes line by line must change how frames are
// read, not which: shardStream reads the frames json.Decoder reads, up
// to and including the first error. The seeds in testdata are a clean
// stream, a torn last line, a duplicate index, an out-of-range index
// and a shutdown frame, all without points or reports (a report
// campaign finds their first result malformed), and results with their
// reports (a campaign without reports drops them). The seeds added here
// are lineStreams: result frames that carry the campaign's own point
// encodings, as a real worker's do, and near misses of that layout.
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
	cs, err := newCampaignState("s", make([]sdpolicy.Point, 5), nil, false, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range lineStreams(f, cs.wire[1]) {
		f.Add(s.stream)
	}
	shardWire := [][]byte{cs.wire[shard[0]], cs.wire[shard[1]], cs.wire[shard[2]]}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A copy: a handler cut off mid-write may still read it after
		// this input returns, when the engine reuses data.
		body := bytes.Clone(data)
		stream.Store(&body)
		for _, wantReports := range []bool{false, true} {
			attached.Store(false)
			updates := make(chan sdpolicy.PointResult, len(shard))
			st := &fanout{points: cs.points, wire: cs.wire, updates: updates, received: make([]bool, 5)}
			rem, err, verdict := c.runShard(context.Background(), worker.URL, shardJob{positions: shard}, st, wantReports)
			close(updates)
			if !attached.Load() {
				t.Fatalf("reports %v: runShard never attached to the stream: %v", wantReports, err)
			}
			emitted := make(map[int]bool)
			for u := range updates {
				if !slices.Contains(shard, u.Index) || emitted[u.Index] {
					t.Fatalf("reports %v: emitted position %d outside shard %v or twice", wantReports, u.Index, shard)
				}
				if (len(u.Report) != 0) != wantReports {
					t.Fatalf("reports %v: emitted position %d with report %q", wantReports, u.Index, u.Report)
				}
				emitted[u.Index] = true
			}
			whole := slices.Clone(rem.positions)
			for pos := range emitted {
				whole = append(whole, pos)
			}
			if slices.Sort(whole); !slices.Equal(whole, shard) {
				t.Fatalf("reports %v: remainder %v plus emitted %v is not shard %v", wantReports, rem.positions, emitted, shard)
			}
			if verdict == verdictOK && (err != nil || len(emitted) != len(shard) || !holdsDone(data)) {
				t.Fatalf("reports %v: verdictOK (err %v) with %d of %d positions emitted", wantReports, err, len(emitted), len(shard))
			}
		}

		frames := newShardStream(bytes.NewReader(data), shardWire)
		dec := json.NewDecoder(bytes.NewReader(data))
		for n := 1; ; n++ {
			var got, want streamFrame
			gotErr, wantErr := frames.next(&got), dec.Decode(&want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("frame %d: shardStream error %v, json.Decoder error %v", n, gotErr, wantErr)
			}
			if gotErr != nil {
				break
			}
			g, gerr := json.Marshal(got)
			w, werr := json.Marshal(want)
			if gerr != nil || werr != nil || !bytes.Equal(g, w) {
				t.Fatalf("frame %d: shardStream read %s (%v), json.Decoder %s (%v)", n, g, gerr, w, werr)
			}
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
