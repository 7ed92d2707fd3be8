package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sdpolicy"
	"sdpolicy/internal/journal"
	"sdpolicy/internal/reducer"
)

// experimentGoldenCases lists every registry experiment with parameters
// small enough for a test run; the golden tests assert that the server
// path reproduces the local Engine helper byte for byte on each.
type experimentGoldenCase struct {
	name   string
	params reducer.Params
}

func experimentGoldenCases() []experimentGoldenCase {
	return []experimentGoldenCase{
		{"table1", reducer.Params{"scale": 0.03}},
		{"table2", reducer.Params{}},
		{"sweep_maxsd", reducer.Params{"workloads": []string{"wl1"}, "scale": 0.05}},
		{"runtime_models", reducer.Params{"workloads": []string{"wl1"}, "scale": 0.05}},
		{"big_workload", reducer.Params{"scale": 0.02}},
		{"real_run", reducer.Params{"scale": 0.05}},
		{"ablate_sharing_factor", reducer.Params{"scale": 0.05, "factors": []float64{0.5}}},
		{"ablate_max_mates", reducer.Params{"scale": 0.05, "mates": []int{2}}},
		{"ablate_malleable_fraction", reducer.Params{"scale": 0.05, "fractions": []float64{0.5}}},
		{"ablate_node_features", reducer.Params{"scale": 0.05, "fractions": []float64{0.5}}},
		{"ablate_free_node_mixing", reducer.Params{"scale": 0.05}},
		{"compare_policies", reducer.Params{"scale": 0.05}},
	}
}

// goldenSummaryBytes memoises the local reference summaries across the
// golden tests (single-server and coordinator assert against the same
// bytes), so each experiment's reference simulates once per binary.
var (
	goldenMu    sync.Mutex
	goldenCache = map[string][]byte{}
)

func goldenSummaryBytes(t *testing.T, engine *sdpolicy.Engine, tc experimentGoldenCase) []byte {
	t.Helper()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if b, ok := goldenCache[tc.name]; ok {
		return b
	}
	v, err := engine.Experiment(context.Background(), tc.name, tc.params)
	if err != nil {
		t.Fatalf("local %s: %v", tc.name, err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("local %s: %v", tc.name, err)
	}
	goldenCache[tc.name] = b
	return b
}

func TestExperimentsGoldenSingleServer(t *testing.T) {
	// The server and the local reference share one engine, so the remote
	// run replays the reference's cached results — the test then isolates
	// the reduction and wire layers rather than simulation determinism
	// (which has its own coverage).
	engine := sdpolicy.NewEngine(4, 256)
	srv := httptest.NewServer(New(engine, 8).Handler())
	defer srv.Close()
	for _, tc := range experimentGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenSummaryBytes(t, engine, tc)
			rows := 0
			got, err := RunRemoteExperiment(context.Background(), nil, []string{srv.URL},
				tc.name, tc.params, func(json.RawMessage) { rows++ })
			if err != nil {
				t.Fatalf("remote %s: %v", tc.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("summary differs:\nremote %s\nlocal  %s", got, want)
			}
			// Experiments with an incremental-row fold must stream at
			// least one row before the summary. table2 has no simulation
			// points at all; big_workload and real_run fold points but are
			// summary-only by design (their figures need every point).
			d := sdpolicy.Experiments().Get(tc.name)
			inst, err := d.Instance(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			summaryOnly := tc.name == "big_workload" || tc.name == "real_run"
			if len(inst.Points()) > 0 && !summaryOnly && rows == 0 {
				t.Fatal("no incremental rows streamed")
			}
			if (len(inst.Points()) == 0 || summaryOnly) && rows != 0 {
				t.Fatalf("summary-only experiment streamed %d rows", rows)
			}
		})
	}
}

func TestExperimentsGoldenCoordinator(t *testing.T) {
	workers := startWorkers(t, 2)
	coord := startCoordinator(t, workers)
	reference := sdpolicy.NewEngine(4, 256)
	for _, tc := range experimentGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenSummaryBytes(t, reference, tc)
			got, err := RunRemoteExperiment(context.Background(), nil, []string{coord.URL},
				tc.name, tc.params, nil)
			if err != nil {
				t.Fatalf("remote %s: %v", tc.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("summary differs:\ncoordinator %s\nlocal       %s", got, want)
			}
		})
	}
}

// createExperiment POSTs an experiment resource and returns its ID.
func createExperiment(t *testing.T, base, name string, params reducer.Params) string {
	t.Helper()
	body, err := json.Marshal(CreateExperimentRequest{Experiment: name, Params: rawParams(t, params)})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, base+"/v1/experiments", string(body))
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d: %s", resp.StatusCode, b)
	}
	var cr CreateExperimentResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.ID == "" || cr.Experiment != name ||
		resp.Header.Get("Location") != "/v1/experiments/"+cr.ID ||
		resp.Header.Get("X-Campaign-ID") != cr.ID {
		t.Fatalf("create reply inconsistent: %+v, Location %q", cr, resp.Header.Get("Location"))
	}
	return cr.ID
}

func rawParams(t *testing.T, params reducer.Params) map[string]json.RawMessage {
	t.Helper()
	out := make(map[string]json.RawMessage, len(params))
	for k, v := range params {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = b
	}
	return out
}

// attachExperimentLines attaches from the row cursor and returns the
// raw NDJSON lines; the stream must end (terminal frame) to return.
func attachExperimentLines(t *testing.T, base, id string, from uint64) []string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/experiments/%s?from=%d", base, id, from))
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

func TestExperimentResumeFromCursor(t *testing.T) {
	srv := httptest.NewServer(New(sdpolicy.NewEngine(4, 64), 8).Handler())
	defer srv.Close()
	id := createExperiment(t, srv.URL, "sweep_maxsd",
		reducer.Params{"workloads": []string{"wl1"}, "scale": 0.05})
	full := attachExperimentLines(t, srv.URL, id, 0)
	if len(full) < 2 {
		t.Fatalf("stream too short: %v", full)
	}
	var done struct {
		Done    bool            `json:"done"`
		Summary json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal([]byte(full[len(full)-1]), &done); err != nil || !done.Done {
		t.Fatalf("last line is not the done frame: %s", full[len(full)-1])
	}
	// Row seqs are 1..N in frame order, so ?from=mid must replay exactly
	// the suffix full[mid:], byte for byte.
	mid := uint64(len(full) / 2)
	suffix := attachExperimentLines(t, srv.URL, id, mid)
	if len(suffix) != len(full)-int(mid) {
		t.Fatalf("?from=%d: %d lines, want %d", mid, len(suffix), len(full)-int(mid))
	}
	for i, line := range suffix {
		if line != full[int(mid)+i] {
			t.Fatalf("?from=%d line %d differs:\n%s\nvs\n%s", mid, i, line, full[int(mid)+i])
		}
	}
	// A cursor past the end still closes the stream with the terminal
	// frame (and nothing else).
	past := attachExperimentLines(t, srv.URL, id, 9999)
	if len(past) != 1 || past[0] != full[len(full)-1] {
		t.Fatalf("?from=9999 = %v, want just the done frame", past)
	}
}

// TestJournaledExperimentRestart: an experiment's create record binds
// its campaign to the experiment and its parameters, so a server
// restarted on the journal re-resolves them and streams
// /v1/experiments/{id} exactly as the server that ran it. The
// parameters are not the defaults: a recovery that fell back to those
// would fold two results into a four-point sweep and fail the summary.
func TestJournaledExperimentRestart(t *testing.T) {
	dir := t.TempDir()
	start := func() (*httptest.Server, ActivationStats) {
		j, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(sdpolicy.NewEngine(2, 64), 4)
		s.EnableJournal(j)
		stats := s.Activate()
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		return srv, stats
	}
	first, _ := start()
	id := createExperiment(t, first.URL, "ablate_sharing_factor",
		reducer.Params{"scale": 0.05, "factors": []float64{0.5}})
	want := attachExperimentLines(t, first.URL, id, 0)
	if !strings.Contains(want[len(want)-1], `"done":true`) {
		t.Fatalf("the first server's stream ends %s, want done", want[len(want)-1])
	}
	first.Close()

	second, stats := start()
	if stats.Completed != 1 || stats.Resumed != 0 {
		t.Fatalf("restart adopted %+v, want 1 completed campaign", stats)
	}
	got := attachExperimentLines(t, second.URL, id, 0)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("after the restart\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExperimentListEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var list ExperimentList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	descriptors := sdpolicy.Experiments().List()
	if len(list.Experiments) != len(descriptors) {
		t.Fatalf("%d experiments listed, registry has %d", len(list.Experiments), len(descriptors))
	}
	for i, d := range descriptors {
		e := list.Experiments[i]
		if e.Name != d.Name {
			t.Fatalf("position %d: %q, want %q (registration order)", i, e.Name, d.Name)
		}
		if e.Params == nil {
			t.Fatalf("%s: params missing from listing", e.Name)
		}
		if e.Reports != d.NeedsReports {
			t.Fatalf("%s: reports = %v, want %v", e.Name, e.Reports, d.NeedsReports)
		}
	}
}

func TestExperimentCreateErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name, body string
		wantCode   string
	}{
		{"missing experiment", `{}`, "bad_request"},
		{"unknown experiment", `{"experiment":"fig99"}`, "bad_request"},
		{"unknown parameter", `{"experiment":"table1","params":{"bogus":1}}`, "bad_request"},
		{"mistyped parameter", `{"experiment":"table1","params":{"scale":"big"}}`, "bad_request"},
		{"malformed json", `{`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+"/v1/experiments", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var env ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Message == "" {
				t.Fatalf("error envelope missing: %v (%+v)", err, env)
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q", env.Error.Code, tc.wantCode)
			}
		})
	}
}

func TestExperimentPlaneRejectsPlainCampaigns(t *testing.T) {
	srv := testServer(t)
	// A plain campaign is 404 on the experiments plane (no reducer), and
	// an unknown ID is 404 on both.
	id := createCampaign(t, srv.URL, "", campaignPointsBody)
	resp, err := http.Get(srv.URL + "/v1/experiments/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("plain campaign on experiments plane: status %d, want 404", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.CampaignID != id {
		t.Fatalf("envelope: %v (%+v)", err, env)
	}
	r2, err := http.Get(srv.URL + "/v1/experiments/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment resource: status %d, want 404", r2.StatusCode)
	}
}

func TestExperimentAttachBadCursor(t *testing.T) {
	srv := testServer(t)
	id := createExperiment(t, srv.URL, "table2", nil)
	resp, err := http.Get(srv.URL + "/v1/experiments/" + id + "?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestExperimentCancel(t *testing.T) {
	srv := testServer(t)
	id := createExperiment(t, srv.URL, "table1", reducer.Params{"scale": 0.03})
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/experiments/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	// The stream must close with a terminal frame either way the race
	// lands (cancelled mid-run, or done if the campaign won).
	lines := attachExperimentLines(t, srv.URL, id, 0)
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"cancelled":true`) && !strings.Contains(last, `"done":true`) {
		t.Fatalf("no terminal frame after cancel: %s", last)
	}
}

// TestLegacyEndpointConventions covers the migrated legacy endpoints:
// unified envelope on errors, proper Allow headers on 405, and 415 for
// non-JSON bodies.
func TestLegacyEndpointConventions(t *testing.T) {
	srv := testServer(t)
	t.Run("method not allowed", func(t *testing.T) {
		cases := []struct {
			method, path, allow string
		}{
			{http.MethodGet, "/v1/simulate", "POST"},
			{http.MethodPost, "/healthz", "GET"},
			{http.MethodPut, "/v1/experiments", "GET, POST"},
		}
		for _, tc := range cases {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var env ErrorEnvelope
			derr := json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
			}
			if derr != nil || env.Error.Code != "method_not_allowed" {
				t.Fatalf("%s %s: envelope %+v (%v)", tc.method, tc.path, env, derr)
			}
		}
	})
	t.Run("unsupported media type", func(t *testing.T) {
		for _, path := range []string{"/v1/simulate", "/v1/campaigns", "/v1/experiments"} {
			resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			var env ErrorEnvelope
			derr := json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Fatalf("%s: status %d, want 415", path, resp.StatusCode)
			}
			if derr != nil || env.Error.Code != "unsupported_media_type" {
				t.Fatalf("%s: envelope %+v (%v)", path, env, derr)
			}
		}
	})
	t.Run("content type omitted still works", func(t *testing.T) {
		// Historical clients omit Content-Type; the check is lenient.
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/simulate",
			strings.NewReader(`{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
	})
}
