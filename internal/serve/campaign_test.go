package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdpolicy"
)

// testFrame decodes any campaign stream frame, including the fields the
// clients in client.go never read: the echoed point and done count, and
// the trace frame's payload.
type testFrame struct {
	streamFrame
	Point      *sdpolicy.Point `json:"point"`
	Points     int             `json:"points"`
	Trace      bool            `json:"trace"`
	CampaignID string          `json:"campaign_id"`
	Shards     []ShardSpan     `json:"shards"`
	Peers      []PeerTrace     `json:"peers"`
}

func (f testFrame) done() bool { return f.Done != nil && *f.Done }

func decodeFrames(t *testing.T, lines []string) []testFrame {
	t.Helper()
	frames := make([]testFrame, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &frames[i]); err != nil {
			t.Fatalf("bad stream frame %q: %v", l, err)
		}
	}
	return frames
}

// campaignFrames creates a campaign from body (under id, when given)
// and returns its whole stream, attached from cursor 0.
func campaignFrames(t *testing.T, base, id, body string) []testFrame {
	t.Helper()
	return decodeFrames(t, attachLines(t, base, createCampaign(t, base, id, body), 0))
}

// slowPointsBody builds a campaign of n distinct wl1 points at the
// given scale (0.25 takes tens of ms, 0.5 a few hundred), seeds from
// first on: distinct seeds defeat in-flight coalescing and the cache,
// so every point is a fresh simulation.
func slowPointsBody(n, first int, scale float64) string {
	specs := make([]string, n)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"workload":"wl1","scale":%g,"seed":%d,"options":{"policy":"sd","max_slowdown":10}}`, scale, first+i)
	}
	return `{"points":[` + strings.Join(specs, ",") + `]}`
}

// deleteCampaign cancels a campaign resource, returning the status.
func deleteCampaign(t *testing.T, base, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestCampaignEndpointNDJSON(t *testing.T) {
	srv := testServer(t)
	id := createCampaign(t, srv.URL, "", `{"points":[
		{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
		{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}},
		{"workload":"wl1","scale":0.1,"seed":2,"malleable_fraction":0.5,"options":{"policy":"sd"}}
	]}`)
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		lines = append(lines, sc.Text())
	}
	frames := decodeFrames(t, lines)
	if len(frames) != 4 {
		t.Fatalf("%d frames, want 3 results + 1 terminal", len(frames))
	}
	seen := map[int]bool{}
	for _, f := range frames[:3] {
		if f.Index == nil || f.Result == nil || f.Point == nil {
			t.Fatalf("malformed result frame: %+v", f)
		}
		if seen[*f.Index] {
			t.Fatalf("index %d streamed twice", *f.Index)
		}
		seen[*f.Index] = true
		if f.Result.Jobs == 0 || f.Result.Makespan == 0 {
			t.Fatalf("implausible result for index %d: %+v", *f.Index, f.Result)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("indices covered: %v", seen)
	}
	if last := frames[3]; !last.done() || last.Points != 3 || last.Index != nil || last.Seq != 4 {
		t.Fatalf("terminal frame: %+v", last)
	}
}

func TestCampaignEndpointSSE(t *testing.T) {
	srv := testServer(t)
	id := createCampaign(t, srv.URL, "",
		`{"points":[{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}}]}`)
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	events := strings.Split(strings.TrimSpace(buf.String()), "\n\n")
	if len(events) != 2 {
		t.Fatalf("%d SSE events, want result + done:\n%s", len(events), buf.String())
	}
	if !strings.HasPrefix(events[0], "event: result\ndata: ") {
		t.Fatalf("first event:\n%s", events[0])
	}
	if !strings.HasPrefix(events[1], "event: done\ndata: ") {
		t.Fatalf("terminal event:\n%s", events[1])
	}
	var res sdpolicy.PointResult
	if err := json.Unmarshal([]byte(strings.SplitN(events[0], "\ndata: ", 2)[1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || res.Result.MalleableStarts == 0 {
		t.Fatalf("implausible SSE result: %+v", res.Result)
	}
}

func TestCampaignStreamsErrorAsTerminalEvent(t *testing.T) {
	srv := testServer(t)
	// The point passes create-time validation and fails when it runs,
	// so the error arrives in-band as the terminal frame.
	frames := campaignFrames(t, srv.URL, "bad-wl", `{"points":[{"workload":"wl-nope","options":{}}]}`)
	if len(frames) != 1 || frames[0].Error == nil || frames[0].Seq != 1 || frames[0].done() {
		t.Fatalf("terminal error frame missing: %+v", frames)
	}
	if e := frames[0].Error; e.Code != "bad_request" || e.Message == "" || e.CampaignID != "bad-wl" {
		t.Fatalf("error frame detail %+v", e)
	}
	if st := campaignStatus(t, srv.URL, "bad-wl"); st.State != campaignFailed || st.Error == "" {
		t.Fatalf("status %+v, want failed", st)
	}
}

func TestCampaignBadRequests(t *testing.T) {
	srv := testServer(t)
	for name, body := range map[string]string{
		"no points":     `{"points":[]}`,
		"no workload":   `{"points":[{"options":{}}]}`,
		"bad fraction":  `{"points":[{"workload":"wl1","malleable_fraction":2,"options":{}}]}`,
		"unknown field": `{"points":[{"workload":"wl1","options":{}}],"bogus":1}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+"/v1/campaigns", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	// The stream encoding is chosen per attach, so an unknown one is the
	// attach's 400.
	t.Run("bad format", func(t *testing.T) {
		id := createCampaign(t, srv.URL, "", `{"points":[{"workload":"wl5","scale":0.15,"seed":1,"options":{}}]}`)
		resp, err := http.Get(srv.URL + "/v1/campaigns/" + id + "?format=xml")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestCampaignCancelAbortsInFlight is the acceptance test for prompt
// mid-simulation cancellation over HTTP: a DELETE after the first
// streamed result must abort the campaign — including the point
// simulating at that moment — and free its slot in a small fraction of
// the campaign's remaining runtime.
func TestCampaignCancelAbortsInFlight(t *testing.T) {
	const points = 12
	engine := sdpolicy.NewEngine(1, 0) // sequential: ~points × point-runtime total
	s := New(engine, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id := createCampaign(t, srv.URL, "", slowPointsBody(points, 1, 0.25))
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Streaming, not batching: the first result arrives while most of
	// the campaign still hasn't simulated.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first result: %v", sc.Err())
	}
	if f := decodeFrames(t, []string{sc.Text()})[0]; f.Index == nil {
		t.Fatalf("first frame %q is not a result", sc.Text())
	}
	if s.campaigns.Load() != 1 || len(s.slots) != 1 {
		t.Fatalf("mid-stream state: campaigns=%d slots=%d", s.campaigns.Load(), len(s.slots))
	}

	if code := deleteCampaign(t, srv.URL, id); code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", code)
	}
	start := time.Now()
	deadline := time.After(10 * time.Second)
	for s.campaigns.Load() != 0 || len(s.slots) != 0 {
		select {
		case <-deadline:
			t.Fatalf("slot not released %v after DELETE: campaigns=%d slots=%d",
				time.Since(start), s.campaigns.Load(), len(s.slots))
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The campaign must have aborted well short of completion: with one
	// worker, at most the finished first point plus the point in flight
	// (and a scheduling-race straggler) may have simulated.
	if _, misses := engine.CacheStats(); misses >= points/2 {
		t.Fatalf("%d of %d points simulated despite DELETE after the first result", misses, points)
	}
	waitCampaignState(t, srv.URL, id, campaignCancelled)
}

// TestBeginShutdownEndsStreamWithTerminalEvent: an open attach stream
// must be completed with an explicit shutdown frame — not a cut
// connection — when the server begins shutdown.
func TestBeginShutdownEndsStreamWithTerminalEvent(t *testing.T) {
	engine := sdpolicy.NewEngine(1, 0)
	s := New(engine, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id := createCampaign(t, srv.URL, "", slowPointsBody(8, 100, 0.25))
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first result: %v", sc.Err())
	}
	s.BeginShutdown()
	var lines []string
	for sc.Scan() { // reads to EOF: the response completes
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatal("stream ended without a shutdown frame")
	}
	last := decodeFrames(t, lines)[len(lines)-1]
	if last.Shutdown == nil || !*last.Shutdown || last.Error == nil ||
		last.Error.Code != "unavailable" || last.Seq != 0 {
		t.Fatalf("last frame %q, want the shutdown frame", lines[len(lines)-1])
	}
}

// TestBeginShutdownRejectsQueuedRequests: a request still waiting for
// a slot when shutdown begins has produced no output yet, so it gets a
// plain 503 instead of blocking Shutdown for the grace period.
func TestBeginShutdownRejectsQueuedRequests(t *testing.T) {
	s := New(sdpolicy.NewEngine(1, 0), 1)
	s.slots <- struct{}{} // the only slot is taken
	s.BeginShutdown()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"workload":"wl1","scale":0.1}`))
	s.handleSimulate(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request during shutdown: status %d, want 503", rec.Code)
	}
}

func TestHealthReportsInFlightCampaigns(t *testing.T) {
	engine := sdpolicy.NewEngine(1, 0)
	s := New(engine, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Enough distinct points that the campaign is reliably observable
	// in flight: a single small sim can finish between two health polls.
	var points []string
	for seed := 1; seed <= 32; seed++ {
		points = append(points,
			fmt.Sprintf(`{"workload":"wl1","scale":1.0,"seed":%d,"options":{"policy":"sd"}}`, seed))
	}
	id := createCampaign(t, srv.URL, "", `{"points":[`+strings.Join(points, ",")+`]}`)

	// The runner holds its slot until the campaign finishes or is
	// cancelled; observe it in /healthz while it runs.
	deadline := time.After(10 * time.Second)
	for {
		h := fetchHealth(t, srv.URL)
		if h.CampaignsInFlight == 1 && h.InFlight == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("campaign never visible in /healthz: %+v", h)
		case <-time.After(2 * time.Millisecond):
		}
	}
	deleteCampaign(t, srv.URL, id)
	deadline = time.After(10 * time.Second)
	for {
		h := fetchHealth(t, srv.URL)
		if h.CampaignsInFlight == 0 && h.InFlight == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("in-flight counts stuck after DELETE: %+v", h)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestCampaignDerivationsMatchGoAPIAblation is the HTTP half of the
// derivation refactor's acceptance criterion: a campaign whose points
// carry derivation chains must reproduce the Go-API ablation helper's
// rows exactly — the labelled sweeps need nothing beyond plain points
// on the wire.
func TestCampaignDerivationsMatchGoAPIAblation(t *testing.T) {
	const workload, scale = "wl5", 0.2
	const seed = 31
	fracs := []float64{0, 0.5}

	goEngine := sdpolicy.NewEngine(2, 32)
	want, err := goEngine.AblateNodeFeatures(context.Background(), workload, scale, seed, fracs)
	if err != nil {
		t.Fatal(err)
	}

	// The same campaign as plain wire points: the static baseline plus
	// one derived point per variant, exactly as AblateNodeFeatures
	// shapes them.
	points := []sdpolicy.PointSpec{
		{Workload: workload, Scale: scale, Seed: seed, Options: sdpolicy.Options{Policy: "static"}},
	}
	for _, f := range fracs {
		points = append(points, sdpolicy.PointSpec{
			Workload: workload, Scale: scale, Seed: seed,
			Options: sdpolicy.Options{Policy: "sd"},
			Derivations: []sdpolicy.Derivation{
				sdpolicy.TagNodesDerivation("bigmem", 0.5),
				sdpolicy.RequireFeatureDerivation("bigmem", f),
			},
		})
	}
	body, err := json.Marshal(CreateCampaignRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	srv := testServer(t)
	frames := campaignFrames(t, srv.URL, "", string(body))
	if len(frames) != len(points)+1 {
		t.Fatalf("%d frames, want %d results + terminal", len(frames), len(points))
	}
	results := make([]*sdpolicy.Result, len(points))
	for _, f := range frames[:len(points)] {
		if f.Index == nil || f.Result == nil {
			t.Fatalf("malformed frame %+v", f)
		}
		results[*f.Index] = f.Result
	}
	base := results[0]
	for i, f := range fracs {
		res := results[i+1]
		row := want[i]
		if row.Value != fmt.Sprintf("%.2f", f) {
			t.Fatalf("row %d labels %q, want %.2f", i, row.Value, f)
		}
		if got := res.AvgSlowdown / base.AvgSlowdown; got != row.AvgSlowdown {
			t.Fatalf("frac %v: slowdown %v over HTTP, %v via Go API", f, got, row.AvgSlowdown)
		}
		if got := res.AvgResponse / base.AvgResponse; got != row.AvgResponse {
			t.Fatalf("frac %v: response %v over HTTP, %v via Go API", f, got, row.AvgResponse)
		}
		if got := float64(res.Makespan) / float64(base.Makespan); got != row.Makespan {
			t.Fatalf("frac %v: makespan %v over HTTP, %v via Go API", f, got, row.Makespan)
		}
	}

	// Echoed points must round-trip: resubmitting the streamed point
	// reproduces its result from cache.
	echoed, err := json.Marshal(CreateCampaignRequest{Points: []sdpolicy.PointSpec{points[1]}})
	if err != nil {
		t.Fatal(err)
	}
	frames2 := campaignFrames(t, srv.URL, "", string(echoed))
	if len(frames2) != 2 || frames2[0].Result == nil {
		t.Fatalf("resubmit frames: %+v", frames2)
	}
	if frames2[0].Result.AvgSlowdown != results[1].AvgSlowdown {
		t.Fatal("resubmitted derived point diverged")
	}

	// Invalid derivations are a 400, not a campaign.
	bad := postJSON(t, srv.URL+"/v1/campaigns",
		`{"points":[{"workload":"wl5","derivations":[{"op":"warp","fraction":0.5}],"options":{}}]}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid derivation: status %d", bad.StatusCode)
	}
}
