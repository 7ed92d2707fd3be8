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
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdpolicy"
	"sdpolicy/internal/journal"
	"sdpolicy/internal/reducer"
)

// campaignPoints are four distinct canonical points (different seeds),
// so cache-hit accounting maps one miss to one simulated point.
const campaignPointsBody = `{"points":[
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}},
	{"workload":"wl5","scale":0.15,"seed":2,"options":{"policy":"sd","max_slowdown":10}},
	{"workload":"wl5","scale":0.15,"seed":3,"options":{"policy":"static"}},
	{"workload":"wl5","scale":0.15,"seed":4,"options":{"policy":"oversubscribe"}}
]}`

const campaignPointCount = 4

func campaignTestPoints(t *testing.T) []sdpolicy.Point {
	t.Helper()
	var req CreateCampaignRequest
	if err := json.Unmarshal([]byte(campaignPointsBody), &req); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// createCampaign POSTs a campaign resource and returns its ID.
func createCampaign(t *testing.T, base, id, body string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/campaigns", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Campaign-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var cr CreateCampaignResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.ID == "" || resp.Header.Get("Location") != "/v1/campaigns/"+cr.ID ||
		resp.Header.Get("X-Campaign-ID") != cr.ID {
		t.Fatalf("create reply inconsistent: id %q, Location %q", cr.ID, resp.Header.Get("Location"))
	}
	return cr.ID
}

// attachLines attaches from the cursor and returns the raw NDJSON
// lines; the stream must end (terminal frame) for this to return.
func attachLines(t *testing.T, base, id string, from uint64) []string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%s?from=%d", base, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach: status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func campaignStatus(t *testing.T, base, id string) CampaignStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitCampaignState polls a campaign's status until it reaches one of
// the given states.
func waitCampaignState(t *testing.T, base, id string, states ...string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := campaignStatus(t, base, id)
		for _, want := range states {
			if st.State == want {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %q (want %v): %+v", id, st.State, states, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// resultsByIndex decodes every result frame of an NDJSON attach into a
// per-position Result JSON map, asserting no index streams twice.
func resultsByIndex(t *testing.T, lines []string) map[int]string {
	t.Helper()
	out := make(map[int]string)
	for _, l := range lines {
		var f streamFrame
		if err := json.Unmarshal([]byte(l), &f); err != nil {
			t.Fatalf("bad frame %q: %v", l, err)
		}
		if f.Index == nil {
			continue
		}
		if _, dup := out[*f.Index]; dup {
			t.Fatalf("index %d streamed twice", *f.Index)
		}
		b, _ := json.Marshal(f.Result)
		out[*f.Index] = string(b)
	}
	return out
}

func TestCampaignResourceLifecycle(t *testing.T) {
	srv := testServer(t)
	id := createCampaign(t, srv.URL, "life", campaignPointsBody)
	if id != "life" {
		t.Fatalf("client-chosen ID not honoured: %q", id)
	}
	st := waitCampaignState(t, srv.URL, id, campaignDone)
	if st.Points != campaignPointCount || st.Completed != campaignPointCount ||
		st.Seq != campaignPointCount+1 {
		t.Fatalf("terminal status %+v", st)
	}

	lines := attachLines(t, srv.URL, id, 0)
	if len(lines) != campaignPointCount+1 {
		t.Fatalf("%d frames, want %d", len(lines), campaignPointCount+1)
	}
	// Frames carry contiguous seqs from 1, and the terminal is done.
	for i, l := range lines {
		var f streamFrame
		if err := json.Unmarshal([]byte(l), &f); err != nil {
			t.Fatal(err)
		}
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
	}
	var last streamFrame
	json.Unmarshal([]byte(lines[len(lines)-1]), &last)
	if last.Done == nil || !*last.Done {
		t.Fatalf("terminal frame %q not done", lines[len(lines)-1])
	}
	// Results match an uninterrupted local run, index for index.
	points := campaignTestPoints(t)
	want, err := sdpolicy.NewEngine(4, 64).Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	got := resultsByIndex(t, lines)
	for i, w := range want {
		wj, _ := json.Marshal(w)
		if got[i] != string(wj) {
			t.Fatalf("index %d: resource %s, local %s", i, got[i], wj)
		}
	}

	// Reattach is byte-identical replay; a ?from= cursor is an exact
	// suffix of the full stream.
	again := attachLines(t, srv.URL, id, 0)
	if strings.Join(again, "\n") != strings.Join(lines, "\n") {
		t.Fatal("reattach replay differs from first attach")
	}
	for from := 1; from <= campaignPointCount; from++ {
		suffix := attachLines(t, srv.URL, id, uint64(from))
		if strings.Join(suffix, "\n") != strings.Join(lines[from:], "\n") {
			t.Fatalf("?from=%d not an exact suffix", from)
		}
	}
	// A cursor at/past the terminal frame re-emits it, never hangs.
	end := attachLines(t, srv.URL, id, campaignPointCount+1)
	if len(end) != 1 || end[0] != lines[len(lines)-1] {
		t.Fatalf("past-the-end attach got %v", end)
	}

	// The SSE encoding carries the same frame bytes in its data lines.
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id + "?format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var data []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if l := sc.Text(); strings.HasPrefix(l, "data: ") {
			data = append(data, strings.TrimPrefix(l, "data: "))
		}
	}
	if strings.Join(data, "\n") != strings.Join(lines, "\n") {
		t.Fatal("SSE data lines differ from NDJSON lines")
	}

	// Cancelling a finished campaign is a 200 no-op.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE after done: status %d", dresp.StatusCode)
	}
}

func TestCampaignResourceErrors(t *testing.T) {
	srv := testServer(t)
	id := createCampaign(t, srv.URL, "errs", campaignPointsBody)
	waitCampaignState(t, srv.URL, id, campaignDone)

	expectEnvelope := func(resp *http.Response, status int, code, campaignID string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d", resp.StatusCode, status)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("not an error envelope: %v", err)
		}
		if env.Error.Code != code || env.Error.Message == "" || env.Error.CampaignID != campaignID {
			t.Fatalf("envelope %+v, want code %q campaign %q", env.Error, code, campaignID)
		}
	}

	// Duplicate create: 409 conflict naming the campaign.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/campaigns", strings.NewReader(campaignPointsBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Campaign-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope(resp, http.StatusConflict, "conflict", id)

	// Unknown campaign: 404 not_found with the requested ID.
	resp, err = http.Get(srv.URL + "/v1/campaigns/nope/status")
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope(resp, http.StatusNotFound, "not_found", "nope")

	// Bad cursor: 400 bad_request.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + id + "?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope(resp, http.StatusBadRequest, "bad_request", id)

	// Empty point list: 400.
	resp = postJSON(t, srv.URL+"/v1/campaigns", `{"points":[]}`)
	var env ErrorEnvelope
	if resp.StatusCode != http.StatusBadRequest ||
		json.NewDecoder(resp.Body).Decode(&env) != nil || env.Error.Code != "bad_request" {
		t.Fatalf("empty points: status %d, envelope %+v", resp.StatusCode, env)
	}

	// Wrong method on the collection: 405 with the envelope.
	resp, err = http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope(resp, http.StatusMethodNotAllowed, "method_not_allowed", "")
}

// TestCampaignCancel parks the campaign behind an occupied simulation
// slot so DELETE races nothing: the cancel lands while the campaign is
// deterministically queued, and the stream ends with a cancelled frame.
func TestCampaignCancel(t *testing.T) {
	s := New(sdpolicy.NewEngine(2, 64), 1)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	s.slots <- struct{}{} // occupy the only slot
	defer func() { <-s.slots }()

	id := createCampaign(t, srv.URL, "cxl", campaignPointsBody)
	if st := campaignStatus(t, srv.URL, id); st.State != campaignRunning {
		t.Fatalf("queued campaign state %q", st.State)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	st := waitCampaignState(t, srv.URL, id, campaignCancelled)
	if st.Completed != 0 {
		t.Fatalf("cancelled-while-queued campaign completed %d points", st.Completed)
	}
	lines := attachLines(t, srv.URL, id, 0)
	if len(lines) != 1 {
		t.Fatalf("%d frames, want just the cancelled terminal", len(lines))
	}
	var f streamFrame
	json.Unmarshal([]byte(lines[0]), &f)
	if f.Cancelled == nil || !*f.Cancelled || f.Seq != 1 {
		t.Fatalf("terminal frame %q, want cancelled seq 1", lines[0])
	}
}

// TestStandbyGatesCampaignPlane: a journal-backed instance refuses all
// campaign work with 503 until Activate, then serves normally.
func TestStandbyGatesCampaignPlane(t *testing.T) {
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sdpolicy.NewEngine(2, 64), 4)
	s.EnableJournal(j)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	expect503 := func(resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("standby status %d, want 503", resp.StatusCode)
		}
		var env ErrorEnvelope
		if json.NewDecoder(resp.Body).Decode(&env) != nil || env.Error.Code != "unavailable" {
			t.Fatalf("standby envelope %+v", env)
		}
	}
	expect503(http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(campaignPointsBody)))
	expect503(http.Get(srv.URL + "/v1/campaigns/whatever"))
	expect503(http.Post(srv.URL+"/v1/experiments", "application/json", strings.NewReader(`{"experiment":"table2"}`)))
	if h := fetchHealth(t, srv.URL); h.Role != "standby" {
		t.Fatalf("standby role %q", h.Role)
	}

	s.Activate()
	if h := fetchHealth(t, srv.URL); h.Role != "active" {
		t.Fatalf("activated role %q", h.Role)
	}
	id := createCampaign(t, srv.URL, "post-activate", campaignPointsBody)
	waitCampaignState(t, srv.URL, id, campaignDone)
}

// TestJournalCrashResume is the durability contract end to end: a
// journaled campaign killed mid-flight (simulated by truncating the
// journal to a prefix plus a torn tail, exactly what kill -9 leaves)
// is resumed by a fresh server — replayed frames byte-identical,
// completed points NOT re-simulated, resumed results identical to the
// uninterrupted run's.
func TestJournalCrashResume(t *testing.T) {
	dir := t.TempDir()
	j1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(sdpolicy.NewEngine(2, 64), 4)
	s1.EnableJournal(j1)
	s1.Activate()
	srv1 := httptest.NewServer(s1.Handler())
	id := createCampaign(t, srv1.URL, "crashme", campaignPointsBody)
	waitCampaignState(t, srv1.URL, id, campaignDone)
	full := attachLines(t, srv1.URL, id, 0)
	reference := resultsByIndex(t, full)
	srv1.Close()

	// Keep the create record and the first two results; drop the rest
	// and tear the tail, as a kill -9 mid-append would.
	path := filepath.Join(dir, id+".journal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(jlines) != campaignPointCount+2 {
		t.Fatalf("journal has %d lines, want %d", len(jlines), campaignPointCount+2)
	}
	const keepResults = 2
	truncated := strings.Join(jlines[:1+keepResults], "\n") + "\n" + `{"seq":` // torn tail
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server (fresh engine: no cache carry-over) adopts the
	// journal and finishes the campaign.
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	engine2 := sdpolicy.NewEngine(2, 64)
	s2 := New(engine2, 4)
	s2.EnableJournal(j2)
	stats := s2.Activate()
	if stats.Resumed != 1 || stats.SkippedPoints != keepResults || stats.Completed != 0 {
		t.Fatalf("activation stats %+v, want 1 resumed / %d skipped", stats, keepResults)
	}
	srv2 := httptest.NewServer(s2.Handler())
	t.Cleanup(srv2.Close)

	resumedFull := attachLines(t, srv2.URL, id, 0)
	if len(resumedFull) != campaignPointCount+1 {
		t.Fatalf("resumed stream has %d frames, want %d", len(resumedFull), campaignPointCount+1)
	}
	// The journaled prefix replays byte-identically.
	for i := 0; i < keepResults; i++ {
		if resumedFull[i] != full[i] {
			t.Fatalf("replayed frame %d differs:\n%s\nvs\n%s", i, resumedFull[i], full[i])
		}
	}
	// Every result — replayed or re-run — matches the uninterrupted run.
	resumed := resultsByIndex(t, resumedFull)
	for i := 0; i < campaignPointCount; i++ {
		if resumed[i] != reference[i] {
			t.Fatalf("index %d after resume: %s, want %s", i, resumed[i], reference[i])
		}
	}
	// Zero re-simulation of checkpointed points: the fresh engine saw
	// exactly the remaining points, nothing more.
	if _, misses := engine2.CacheStats(); misses != campaignPointCount-keepResults {
		t.Fatalf("resumed engine simulated %d points, want %d", misses, campaignPointCount-keepResults)
	}
	// The finished journal is terminal: a third activation just loads it.
	j3, _ := journal.Open(dir)
	s3 := New(sdpolicy.NewEngine(2, 64), 4)
	s3.EnableJournal(j3)
	if stats := s3.Activate(); stats.Resumed != 0 || stats.Completed != 1 {
		t.Fatalf("post-resume activation stats %+v, want 1 completed", stats)
	}
}

// TestJournalCreateRecordHoldsWireEncoding: a campaign's create record
// holds its points' wire encoding, the bytes its result frames echo.
// A journal written before then holds the request's own spelling of
// the points (defaults left out), and recovers to the same points: its
// resumed frames equal a fresh campaign's, byte for byte.
func TestJournalCreateRecordHoldsWireEncoding(t *testing.T) {
	const body = `{"points":[
		{"workload":"wl5","scale":0.15,"options":{"policy":"sd","max_slowdown":10}},
		{"workload":"wl5","scale":0.15,"seed":2,"malleable_fraction":0.5,"options":{"policy":"static"}}]}`
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(body)); err != nil {
		t.Fatal(err)
	}
	w, err := j.Create("request-spelling", compact.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := New(sdpolicy.NewEngine(1, 0), 4)
	s.EnableJournal(j)
	if stats := s.Activate(); stats.Resumed != 1 {
		t.Fatalf("activation stats %+v, want the hand-written journal resumed", stats)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	id := createCampaign(t, srv.URL, "wire-spelling", body)

	var req CreateCampaignRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Points []sdpolicy.Point `json:"points"`
	}{points})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := j.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Data) != string(want) {
		t.Fatalf("create record\n%s\nwant\n%s", recs[0].Data, want)
	}
	fresh, resumed := attachLines(t, srv.URL, id, 0), attachLines(t, srv.URL, "request-spelling", 0)
	if strings.Join(fresh, "\n") != strings.Join(resumed, "\n") {
		t.Fatalf("resumed frames\n%s\nwant the fresh campaign's\n%s", strings.Join(resumed, "\n"), strings.Join(fresh, "\n"))
	}

	// The options after the points keep their spelling: in the create
	// record of a report, traced campaign, in an experiment's, and in
	// the body of a coordinator's shard of a report campaign.
	const point = `{"workload":"wl5","scale":0.15,"options":{"policy":"sd","max_slowdown":10}}`
	const wirePoint = `{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}}`
	createRecord := func(id string) string {
		t.Helper()
		recs, err := j.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		return string(recs[0].Data)
	}
	traced := createCampaign(t, srv.URL, "reports-trace", `{"points":[`+point+`],"reports":true,"trace":true}`)
	waitCampaignState(t, srv.URL, traced, campaignDone)
	experiment := createExperiment(t, srv.URL, "big_workload", reducer.Params{"scale": 0.02})
	attachExperimentLines(t, srv.URL, experiment, 0)

	var mu sync.Mutex
	var shardBodies []string
	worker := New(sdpolicy.NewEngine(1, 0), 4).Handler()
	workerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns" {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			shardBodies = append(shardBodies, string(body))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(workerSrv.Close)
	coord := startCoordinator(t, []string{workerSrv.URL})
	runCampaign(t, coord.URL, `{"points":[`+point+`],"reports":true}`, 1)
	mu.Lock()
	defer mu.Unlock()
	if len(shardBodies) != 1 {
		t.Fatalf("the coordinator created %d shards, want 1", len(shardBodies))
	}
	for _, c := range []struct{ what, got, want string }{
		{"report, traced campaign's create record", createRecord(traced),
			`{"points":[` + wirePoint + `],"reports":true,"trace":true}`},
		{"experiment's create record", createRecord(experiment),
			`{"points":[{"workload":"wl4","scale":0.02,"seed":1,"options":{"policy":"static"}},` +
				`{"workload":"wl4","scale":0.02,"seed":1,"options":{"policy":"sd","max_slowdown":10}}],` +
				`"reports":true,"experiment":"big_workload","params":{"scale":0.02,"seed":1}}`},
		{"shard body", shardBodies[0], `{"points":[` + wirePoint + `],"reports":true}`},
	} {
		if c.got != c.want {
			t.Errorf("%s\n%s\nwant\n%s", c.what, c.got, c.want)
		}
	}
}

// TestDurableClientStopsOnTooLarge: a create refused with 413 is
// refused again on every retry, so the client gives up after one.
func TestDurableClientStopsOnTooLarge(t *testing.T) {
	var creates atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		creates.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("http: request body too large"))
	}))
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := RunDurableCampaign(ctx, nil, []string{srv.URL}, campaignTestPoints(t), false,
		func(int, *sdpolicy.Result, json.RawMessage) error { return nil })
	if httpStatus(err) != http.StatusRequestEntityTooLarge || creates.Load() != 1 {
		t.Fatalf("%d creates, error %v; want one create and its 413", creates.Load(), err)
	}
}

// TestDurableClientRidesThroughDisconnect cuts the first attach stream
// after its first frame; RunDurableCampaign must reattach from that
// frame's seq and deliver every result exactly once.
func TestDurableClientRidesThroughDisconnect(t *testing.T) {
	s := New(sdpolicy.NewEngine(2, 64), 4)
	inner := s.Handler()
	var mu sync.Mutex
	var cursors []uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/campaigns/") {
			mu.Lock()
			from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
			cursors = append(cursors, from)
			first := len(cursors) == 1
			mu.Unlock()
			if first {
				w = &cutAfter{ResponseWriter: w, frames: 1}
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	points := campaignTestPoints(t)
	got := make(map[int]*sdpolicy.Result)
	err := RunDurableCampaign(context.Background(), nil, []string{srv.URL}, points, false,
		func(index int, res *sdpolicy.Result, report json.RawMessage) error {
			if _, dup := got[index]; dup {
				t.Fatalf("index %d emitted twice", index)
			}
			got[index] = res
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != campaignPointCount {
		t.Fatalf("delivered %d results, want %d", len(got), campaignPointCount)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cursors) < 2 || cursors[1] < 1 {
		t.Fatalf("attach cursors %v: want the reattach after the cut to resume from seq 1 or later", cursors)
	}
	want, err := sdpolicy.NewEngine(4, 64).Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Fatalf("index %d: %s, want %s", i, gj, wj)
		}
	}
}

// TestPeerTableFailoverAdoption: a journal-backed coordinator persists
// registered workers; a fresh instance sharing the journal directory
// adopts them on activation.
func TestPeerTableFailoverAdoption(t *testing.T) {
	dir := t.TempDir()
	j1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(sdpolicy.NewEngine(1, 64), 4)
	s1.EnableJournal(j1)
	if err := s1.EnableCoordinator(CoordinatorConfig{ProbeInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.BeginShutdown)
	s1.Activate()
	srv1 := httptest.NewServer(s1.Handler())
	t.Cleanup(srv1.Close)
	registerWorker(t, srv1.URL, "http://127.0.0.1:59999", 600)
	if _, err := os.Stat(filepath.Join(dir, "peers.json")); err != nil {
		t.Fatalf("peer table not persisted: %v", err)
	}

	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(sdpolicy.NewEngine(1, 64), 4)
	s2.EnableJournal(j2)
	if err := s2.EnableCoordinator(CoordinatorConfig{ProbeInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.BeginShutdown)
	if stats := s2.Activate(); stats.AdoptedPeers != 1 {
		t.Fatalf("activation stats %+v, want 1 adopted peer", stats)
	}
	snap := s2.coord.peers.snapshot()
	if len(snap) != 1 || snap[0].URL != "http://127.0.0.1:59999" || snap[0].Source != "registered" {
		t.Fatalf("adopted peer table %+v", snap)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open fds: %v", err)
	}
	return len(ents)
}

func (cr *campaignRegistry) size() int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return len(cr.byID)
}

// TestCampaignRetentionBounded: a journaled server that runs thousands
// of campaigns closes each one's journal writer and keeps only a
// bounded number of finished campaigns in memory, and an evicted
// campaign replays from its journal byte-identically, from the start
// and from a middle cursor.
func TestCampaignRetentionBounded(t *testing.T) {
	const campaigns = 2000
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sdpolicy.NewEngine(2, 64), 4)
	s.EnableJournal(j)
	s.Activate()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	first := createCampaign(t, srv.URL, "first", withTrace(campaignPointsBody))
	full := attachLines(t, srv.URL, first, 0)
	if len(full) != campaignPointCount+2 { // results, trace, done
		t.Fatalf("%d frames, want %d", len(full), campaignPointCount+2)
	}
	const mid = 3
	suffix := attachLines(t, srv.URL, first, mid)

	baseFDs := openFDs(t)
	const onePoint = `{"points":[{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}}]}`
	for i := 0; i < campaigns; i++ {
		id := createCampaign(t, srv.URL, "", onePoint)
		if lines := attachLines(t, srv.URL, id, 0); len(lines) != 2 {
			t.Fatalf("campaign %d: %d frames, want result + done", i, len(lines))
		}
		if i%100 != 99 {
			continue
		}
		// Slack for a few keep-alive sockets; each leaked journal writer
		// is one more fd.
		if n := openFDs(t); n > baseFDs+8 {
			t.Fatalf("after %d campaigns: %d open fds, started with %d", i+1, n, baseFDs)
		}
		if n := s.resources.size(); n > maxTerminalCampaigns {
			t.Fatalf("after %d campaigns: %d campaigns retained, bound %d", i+1, n, maxTerminalCampaigns)
		}
	}

	if s.resources.get(first) != nil {
		t.Fatal("the first campaign was never evicted")
	}
	if again := attachLines(t, srv.URL, first, 0); strings.Join(again, "\n") != strings.Join(full, "\n") {
		t.Fatalf("evicted campaign replays differently:\n%s\nvs\n%s", again, full)
	}
	if again := attachLines(t, srv.URL, first, mid); strings.Join(again, "\n") != strings.Join(suffix, "\n") {
		t.Fatalf("evicted campaign replays differently from ?from=%d", mid)
	}
	if st := campaignStatus(t, srv.URL, first); st.State != campaignDone || st.Completed != campaignPointCount {
		t.Fatalf("reloaded status %+v", st)
	}
}

// TestEvictedCampaignWithoutJournal404: past the retention bound an
// unjournaled server has nothing to rebuild an evicted campaign from,
// so its ID answers the not-found envelope.
func TestEvictedCampaignWithoutJournal404(t *testing.T) {
	srv := testServer(t)
	const onePoint = `{"points":[{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}}]}`
	first := createCampaign(t, srv.URL, "", onePoint)
	attachLines(t, srv.URL, first, 0)
	for i := 0; i < maxTerminalCampaigns; i++ {
		attachLines(t, srv.URL, createCampaign(t, srv.URL, "", onePoint), 0)
	}
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + first)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	if resp.StatusCode != http.StatusNotFound || json.NewDecoder(resp.Body).Decode(&env) != nil ||
		env.Error.Code != "not_found" || env.Error.CampaignID != first {
		t.Fatalf("evicted campaign: status %d, envelope %+v", resp.StatusCode, env)
	}
}
