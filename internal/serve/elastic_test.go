package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdpolicy"
)

// Integration coverage for the elastic-fleet behaviours: health-probed
// rotation, dynamic registration (including mid-campaign joiners
// stealing queued shards), transient-status requeues, heartbeat-lease
// lifecycle, and coordinator-side cache warming from the per-job
// reports in result frames. The static-fleet semantics keep their own
// tests in coordinator_test.go (probing effectively disabled there);
// here probe intervals are tens of milliseconds.

const shortProbe = 20 * time.Millisecond

// doorWorker is a worker whose reachability can be toggled: closed, it
// aborts every connection (campaign posts and health probes alike) the
// way a killed process does; open, it serves a real worker API. The
// inner engine's stats reveal whether it simulated anything.
type doorWorker struct {
	srv    *httptest.Server
	engine *sdpolicy.Engine

	mu   sync.Mutex
	open bool
}

func newDoorWorker(t *testing.T, open bool) *doorWorker {
	t.Helper()
	d := &doorWorker{engine: sdpolicy.NewEngine(2, 64), open: open}
	inner := New(d.engine, 8).Handler()
	d.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		open := d.open
		d.mu.Unlock()
		if !open {
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(d.srv.Close)
	return d
}

func (d *doorWorker) setOpen(open bool) {
	d.mu.Lock()
	d.open = open
	d.mu.Unlock()
}

func (d *doorWorker) misses() uint64 {
	_, misses := d.engine.CacheStats()
	return misses
}

// fetchHealth decodes a /healthz reply.
func fetchHealth(t *testing.T, base string) Health {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// waitPeerState polls the coordinator's /healthz until the peer at url
// reports the wanted state (or the predicate times out).
func waitPeerState(t *testing.T, coordURL, peerURL, want string) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		for _, p := range fetchHealth(t, coordURL).Peers {
			if p.URL == peerURL && p.State == want {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatalf("peer %s never reached state %q; healthz: %+v",
				peerURL, want, fetchHealth(t, coordURL).Peers)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitPeerCount polls until the coordinator reports exactly n peers.
func waitPeerCount(t *testing.T, coordURL string, n int) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		if peers := fetchHealth(t, coordURL).Peers; len(peers) == n {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("peer count never reached %d; healthz: %+v",
				n, fetchHealth(t, coordURL).Peers)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// registerWorker registers url with the coordinator over HTTP.
func registerWorker(t *testing.T, coordURL, url string, ttlSeconds float64) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{URL: url, TTLSeconds: ttlSeconds})
	resp := postJSON(t, coordURL+"/v1/workers/register", string(body))
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: status %d: %s", resp.StatusCode, msg)
	}
}

// TestRegistrationEndpointLifecycle: a worker registers into an
// initially empty fleet, serves campaigns, and deregisters away.
func TestRegistrationEndpointLifecycle(t *testing.T) {
	worker := startWorkers(t, 1)[0]
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: shortProbe})

	registerWorker(t, coord.URL, worker, 0)
	h := fetchHealth(t, coord.URL)
	if len(h.Peers) != 1 {
		t.Fatalf("peers after register: %+v", h.Peers)
	}
	p := h.Peers[0]
	if p.Source != "registered" || p.State != "alive" || p.LeaseExpiresInSeconds <= 0 {
		t.Fatalf("registered peer: %+v", p)
	}
	// The registered-only fleet runs a full campaign.
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))

	body, _ := json.Marshal(RegisterRequest{URL: worker})
	resp := postJSON(t, coord.URL+"/v1/workers/deregister", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	if h := fetchHealth(t, coord.URL); len(h.Peers) != 0 {
		t.Fatalf("peers after deregister: %+v", h.Peers)
	}
}

// TestRegistrationRejections: bad worker URLs are a 400, and a plain
// worker (no fleet) refuses the registration API outright.
func TestRegistrationRejections(t *testing.T) {
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: time.Hour})
	for name, body := range map[string]string{
		"missing url": `{}`,
		"bad url":     `{"url":"not a url"}`,
		"bad scheme":  `{"url":"ftp://w:1"}`,
	} {
		if resp := postJSON(t, coord.URL+"/v1/workers/register", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	plain := testServer(t)
	resp := postJSON(t, plain.URL+"/v1/workers/register", `{"url":"http://w:1"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("register on a non-coordinator: status %d, want 409", resp.StatusCode)
	}
}

// TestDeadWorkerProbedBackIntoRotation is the elasticity acceptance
// test at the package level: a worker that dies mid-fleet is marked
// dead, health-probed with backoff, returned to rotation when it comes
// back, and then actually simulates again — all visible in /healthz.
func TestDeadWorkerProbedBackIntoRotation(t *testing.T) {
	healthy := startWorkers(t, 1)[0]
	door := newDoorWorker(t, false) // down from the start
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{healthy, door.srv.URL},
		ProbeInterval: shortProbe,
	})

	// Campaign 1: the dead worker faults, its shards requeue, output is
	// still byte-identical.
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	waitPeerState(t, coord.URL, door.srv.URL, "dead")
	for _, p := range fetchHealth(t, coord.URL).Peers {
		if p.URL == door.srv.URL && (p.ConsecutiveFailures == 0 || p.LastError == "") {
			t.Fatalf("dead peer carries no fault record: %+v", p)
		}
	}

	// The worker restarts: the prober notices and returns it to
	// rotation without any registration or coordinator restart.
	door.setOpen(true)
	waitPeerState(t, coord.URL, door.srv.URL, "alive")

	// Campaign 2: the revived worker steals shards and simulates.
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	if door.misses() == 0 {
		t.Fatal("revived worker never simulated after returning to rotation")
	}
}

// TestJoinerAfterPlanningStealsQueuedShards: a worker that registers
// after the campaign was planned (fine-grained shards, one static
// worker) picks up queued shards mid-flight — the work-stealing half
// of elasticity. Also covers register-while-campaign-in-flight.
func TestJoinerAfterPlanningStealsQueuedShards(t *testing.T) {
	slowEngine := sdpolicy.NewEngine(1, 0) // sequential: one point at a time
	slow := httptest.NewServer(New(slowEngine, 8).Handler())
	t.Cleanup(slow.Close)
	joiner := newDoorWorker(t, true)
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{slow.URL},
		ProbeInterval: shortProbe,
	})

	const points = 10
	id := createCampaign(t, coord.URL, "", slowPointsBody(points, 1, 0.25))
	resp, err := http.Get(coord.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !bufio.NewScanner(resp.Body).Scan() {
		t.Fatal("no first result")
	}
	// Campaign is in flight with shards still queued (10 sequential
	// slow points, first one just landed): the joiner announces itself
	// and must start stealing immediately.
	registerWorker(t, coord.URL, joiner.srv.URL, 0)
	st := waitCampaignState(t, coord.URL, id, campaignDone)
	if st.Completed != points {
		t.Fatalf("terminal status %+v, want %d points", st, points)
	}
	if joiner.misses() == 0 {
		t.Fatal("mid-campaign joiner never stole a shard")
	}
}

// TestTransientStatusRequeuesWithoutRetiring: 429/503 from a worker —
// up, merely refusing work — requeues the shard and keeps probing; the
// worker rejoins as soon as it accepts again, rather than being
// written off as dead for good.
func TestTransientStatusRequeuesWithoutRetiring(t *testing.T) {
	healthy := startWorkers(t, 1)[0]
	// busy serves /healthz but replies 503 to campaigns until relieved.
	busyEngine := sdpolicy.NewEngine(2, 64)
	busyInner := New(busyEngine, 8).Handler()
	var busyMu sync.Mutex
	busy := true
	busySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		busyMu.Lock()
		b := busy
		busyMu.Unlock()
		if b && r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns" {
			http.Error(w, "no free slots", http.StatusServiceUnavailable)
			return
		}
		busyInner.ServeHTTP(w, r)
	}))
	t.Cleanup(busySrv.Close)
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{healthy, busySrv.URL},
		ProbeInterval: shortProbe,
	})

	// The 503s must not fail the campaign (they are not deterministic
	// errors) and must not lose points: everything lands via the
	// healthy worker.
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	// The busy worker's healthz kept answering, so the prober returns
	// it to rotation even while it still refuses campaigns.
	waitPeerState(t, coord.URL, busySrv.URL, "alive")
	// Relieved, it serves the next campaign's shards.
	busyMu.Lock()
	busy = false
	busyMu.Unlock()
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	if _, misses := busyEngine.CacheStats(); misses == 0 {
		t.Fatal("previously busy worker never simulated after relief")
	}
}

// TestSingleWorkerTransient503Recovers pins the small-fleet half of
// the transient-status promise: when the ONLY worker answers 503, the
// campaign must not abort with "all workers failed" — it waits out a
// bounded revival window while the prober (healthz still answers)
// returns the worker to rotation, and completes once the refusal
// clears.
func TestSingleWorkerTransient503Recovers(t *testing.T) {
	busyEngine := sdpolicy.NewEngine(2, 64)
	busyInner := New(busyEngine, 8).Handler()
	var busyMu sync.Mutex
	busy := true
	busySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		busyMu.Lock()
		b := busy
		busyMu.Unlock()
		if b && r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns" {
			http.Error(w, "no free slots", http.StatusServiceUnavailable)
			return
		}
		busyInner.ServeHTTP(w, r)
	}))
	t.Cleanup(busySrv.Close)
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{busySrv.URL},
		ProbeInterval: shortProbe,
	})
	go func() {
		time.Sleep(300 * time.Millisecond)
		busyMu.Lock()
		busy = false
		busyMu.Unlock()
	}()
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
}

// TestSingleWorkerRefusingForeverStrandsBounded pins the other half of
// that promise: when the only worker answers 503 to every campaign
// while its /healthz keeps answering, the campaign waits for it four
// graces of one prober cycle each, measured from its first refusal, and
// then fails with one terminal error instead of hanging the client.
func TestSingleWorkerRefusingForeverStrandsBounded(t *testing.T) {
	t.Parallel()
	inner := New(sdpolicy.NewEngine(1, 64), 4).Handler()
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns" {
			http.Error(w, "no free slots", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(busy.Close)
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{busy.URL},
		ProbeInterval: shortProbe,
	})
	grace := shortProbe + probeTimeout + probeBackoffBase
	begin := time.Now()
	frames := campaignFrames(t, coord.URL, "", coordCampaignBody)
	took := time.Since(begin)
	expectErrorFrame(t, frames)
	if msg := frames[0].Error.Message; !strings.Contains(msg, "all campaign workers failed") {
		t.Fatalf("error frame %q, want the stranded-campaign failure", msg)
	}
	if took < 4*grace || took > 5*grace {
		t.Fatalf("the stranded campaign failed after %v, want between %v and %v", took, 4*grace, 5*grace)
	}
}

// TestJoinLoopRegistersHeartbeatsAndDeregisters drives the worker-side
// client: JoinLoop announces the worker, keeps the lease renewed well
// past its TTL, and deregisters on context cancellation.
func TestJoinLoopRegistersHeartbeatsAndDeregisters(t *testing.T) {
	worker := startWorkers(t, 1)[0]
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: shortProbe})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		JoinLoop(ctx, nil, []string{coord.URL}, worker, time.Second, t.Logf)
	}()
	waitPeerCount(t, coord.URL, 1)
	// Outlive the initial 1s lease: heartbeats must keep renewing it.
	time.Sleep(1500 * time.Millisecond)
	if h := fetchHealth(t, coord.URL); len(h.Peers) != 1 || h.Peers[0].State != "alive" {
		t.Fatalf("peer lapsed despite heartbeats: %+v", h.Peers)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("JoinLoop never returned after cancellation")
	}
	if h := fetchHealth(t, coord.URL); len(h.Peers) != 0 {
		t.Fatalf("peer still present after JoinLoop deregistration: %+v", h.Peers)
	}
}

// TestHeartbeatLeaseExpiryDropsWorker: a worker that registers once
// and then goes silent is dropped when its lease runs out — the fleet
// shrinks by itself, no operator in the loop.
func TestHeartbeatLeaseExpiryDropsWorker(t *testing.T) {
	worker := startWorkers(t, 1)[0]
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: shortProbe})
	registerWorker(t, coord.URL, worker, 1) // minimum lease, never renewed
	waitPeerCount(t, coord.URL, 1)
	waitPeerCount(t, coord.URL, 0)
}

// TestWorkerReportFrames: the reports create option puts each point's
// per-job report in its result frame on a plain worker stream, and the
// report restores a Result whose per-job report works (Daily has rows);
// without the option result frames carry no report.
func TestWorkerReportFrames(t *testing.T) {
	srv := testServer(t)
	const points = `"points":[
		{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
		{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}}
	]`
	lines := campaignFrames(t, srv.URL, "", `{`+points+`,"reports":true}`)
	if len(lines) != 3 {
		t.Fatalf("%d frames, want 2 results and done", len(lines))
	}
	for _, l := range lines[:2] {
		if l.Index == nil || l.Result == nil {
			t.Fatalf("frame %+v is not a result", l)
		}
		if err := l.Result.SetReportJSON(l.Report); err != nil {
			t.Fatalf("report %q does not decode: %v", l.Report, err)
		}
		if len(l.Result.Daily()) == 0 {
			t.Fatal("restored report has no daily rows")
		}
	}
	if last := lines[len(lines)-1]; !last.done() || last.Points != 2 {
		t.Fatalf("terminal frame %+v", last)
	}

	for _, l := range campaignFrames(t, srv.URL, "", `{`+points+`}`) {
		if l.Report != nil {
			t.Fatalf("unsolicited report: %+v", l)
		}
	}
}

// TestCoordinatorSpillsToCacheDir is the cache-warming acceptance test:
// a coordinator whose engine persists its cache primes it with every
// result proxied from the workers — report included, from the result
// frame — and appends each to its cache log as it arrives, so the
// directory warms a fresh local engine to zero misses with
// byte-identical results. The log is read before the coordinator
// closes it, as after a kill -9.
func TestCoordinatorSpillsToCacheDir(t *testing.T) {
	coord, s := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       startWorkers(t, 2),
		ProbeInterval: time.Hour,
	})
	dir := t.TempDir()
	_, closeLog, err := s.engine.PersistCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := coordReferenceResults(t)
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), want)

	local := sdpolicy.NewEngine(2, 64)
	stats, closeLocal, err := local.PersistCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLocal()
	// 6 campaign points, one canonical duplicate (the repeated static
	// baseline, primed for both positions): 5 distinct entries.
	if stats.Entries != 5 {
		t.Fatalf("loaded %d entries, want 5", stats.Entries)
	}
	if appended, err := closeLog(); err != nil || appended != 5 {
		t.Fatalf("coordinator appended %d entries (err %v), want 5", appended, err)
	}
	var req CreateCampaignRequest
	if err := json.Unmarshal([]byte(coordCampaignBody), &req); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		t.Fatal(err)
	}
	got, err := local.Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := local.CacheStats(); misses != 0 {
		t.Fatalf("%d misses replaying a warmed campaign, want 0", misses)
	}
	assertResultsMatch(t, got, want)
	// The proxied reports survived the round trip: per-day analysis
	// works on a result that was never simulated in this process.
	if len(got[1].Daily()) == 0 {
		t.Fatal("warmed result has no per-job report")
	}
}

// TestRemoteCampaignWarmsLocalCache drives the sdexp -server
// -cache-dir path through a coordinator: RunDurableCampaign with
// reports, each result's report attached and the result primed into an
// engine persisting to a cache directory, then a local replay with zero
// misses — proving the reports relay through the coordinator, not just
// off a single worker. A repeated remote run into the same directory
// appends nothing.
func TestRemoteCampaignWarmsLocalCache(t *testing.T) {
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       startWorkers(t, 2),
		ProbeInterval: time.Hour,
	})
	var req CreateCampaignRequest
	if err := json.Unmarshal([]byte(coordCampaignBody), &req); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for run, wantAppended := range []int{5, 0} {
		local := sdpolicy.NewEngine(2, 64)
		_, closeLog, err := local.PersistCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		err = RunDurableCampaign(context.Background(), nil, []string{coord.URL}, points, true,
			func(index int, res *sdpolicy.Result, report json.RawMessage) error {
				delivered++
				if err := res.SetReportJSON(report); err != nil {
					return err
				}
				return local.Prime(points[index], res)
			})
		if err != nil {
			t.Fatal(err)
		}
		if delivered != len(points) {
			t.Fatalf("%d results, want %d", delivered, len(points))
		}
		if appended, err := closeLog(); err != nil || appended != wantAppended {
			t.Fatalf("run %d appended %d entries (err %v), want %d", run, appended, err, wantAppended)
		}
		res, err := local.Run(context.Background(), points)
		if err != nil {
			t.Fatal(err)
		}
		if _, misses := local.CacheStats(); misses != 0 {
			t.Fatalf("%d misses after remote warming, want 0", misses)
		}
		assertResultsMatch(t, res, coordReferenceResults(t))
	}
}

// BenchmarkCoordinatorFanout is the CI fan-out smoke: a three-worker
// fleet re-merging the fixed campaign. After the first iteration every
// worker serves from cache, so steady-state iterations measure the
// coordination overhead (planning, queueing, streaming, re-merge), not
// simulation.
func BenchmarkCoordinatorFanout(b *testing.B) {
	workers := make([]string, 3)
	for i := range workers {
		srv := httptest.NewServer(New(sdpolicy.NewEngine(2, 64), 8).Handler())
		b.Cleanup(srv.Close)
		workers[i] = srv.URL
	}
	s := New(sdpolicy.NewEngine(1, 64), 8)
	if err := s.EnableCoordinator(CoordinatorConfig{Workers: workers, ProbeInterval: time.Hour}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.BeginShutdown)
	coord := httptest.NewServer(s.Handler())
	b.Cleanup(coord.Close)

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := createResource(ctx, http.DefaultClient, coord.URL, "/v1/campaigns",
			newCampaignID(), []byte(coordCampaignBody))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := attachStream(ctx, http.DefaultClient, coord.URL, "/v1/campaigns", id, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}
