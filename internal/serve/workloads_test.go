package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"sdpolicy"
)

// serveTestTrace is the serve-layer fixture trace: a 4-node machine of
// 4-core nodes and three jobs. The process-wide registry backs every
// httptest instance in this binary, mirroring a fleet whose tiers all
// loaded the same -trace-dir.
const serveTestTrace = `; MaxNodes: 4
; MaxProcs: 16
1 0 5 100 -1 -1 -1 8 200 -1 1 -1 -1 -1 1 1 -1 -1
2 30 -1 60 -1 -1 -1 4 90 -1 1 -1 -1 -1 1 1 -1 -1
3 80 -1 40 -1 -1 -1 4 40 -1 1 -1 -1 -1 1 1 -1 -1
`

func registerServeTrace(t *testing.T) sdpolicy.TraceInfo {
	t.Helper()
	info, err := sdpolicy.RegisterTrace([]byte(serveTestTrace), "serve_test.swf")
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func TestWorkloadsList(t *testing.T) {
	info := registerServeTrace(t)
	srv := testServer(t)
	var list WorkloadList
	if resp := getJSON(t, srv.URL+"/v1/workloads", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	byRef := map[string]WorkloadInfo{}
	for _, w := range list.Workloads {
		byRef[w.Ref] = w
	}
	for _, name := range sdpolicy.WorkloadNames() {
		g, ok := byRef[name]
		if !ok || g.Source != "generator" || len(g.Params) == 0 {
			t.Fatalf("generator %s: %+v", name, g)
		}
	}
	tr, ok := byRef[info.Ref]
	if !ok || tr.Source != "trace" || tr.Digest != info.Digest || tr.Jobs != info.Jobs {
		t.Fatalf("trace listing: %+v", tr)
	}
	ops := map[string]bool{}
	for _, op := range list.Derivations {
		ops[op.Op] = len(op.Fields) > 0 || op.Op == "" // record presence
	}
	for _, want := range []string{"malleable_fraction", "tag_nodes", "require_feature",
		"scale_load", "shift_arrivals", "assign_qos"} {
		if !ops[want] {
			t.Fatalf("derivation schema missing %s: %+v", want, list.Derivations)
		}
	}

	// Write methods are rejected with the listing convention.
	resp := postJSON(t, srv.URL+"/v1/workloads", `{}`)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Fatalf("Allow %q", allow)
	}
}

func TestWorkloadDetail(t *testing.T) {
	info := registerServeTrace(t)
	srv := testServer(t)

	var gen WorkloadInfo
	if resp := getJSON(t, srv.URL+"/v1/workloads/wl1?scale=0.1&seed=1", &gen); resp.StatusCode != http.StatusOK {
		t.Fatalf("generator status %d", resp.StatusCode)
	}
	if gen.Source != "generator" || gen.Jobs == 0 || gen.Nodes == 0 {
		t.Fatalf("generator detail: %+v", gen)
	}

	var tr WorkloadInfo
	if resp := getJSON(t, srv.URL+"/v1/workloads/"+info.Ref, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if tr.Digest != info.Digest || tr.Jobs != info.Jobs || tr.Nodes != info.Nodes {
		t.Fatalf("trace detail: %+v", tr)
	}

	for path, want := range map[string]int{
		"/v1/workloads/wl99":                   http.StatusNotFound,
		"/v1/workloads/trace:0000000000000000": http.StatusNotFound,
		"/v1/workloads/wl1?scale=abc":          http.StatusBadRequest,
		"/v1/workloads/wl1?scale=7":            http.StatusBadRequest,
	} {
		var env ErrorEnvelope
		if resp := getJSON(t, srv.URL+path, &env); resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
		if env.Error.Message == "" {
			t.Fatalf("%s: no error envelope", path)
		}
	}
}

// TestSimulateWorkloadRef: the loose fields are the one point
// spelling. A workload_ref body fails the strict decode with the 400
// envelope, and a loose body carries no deprecation headers.
func TestSimulateWorkloadRef(t *testing.T) {
	srv := testServer(t)
	loose := postJSON(t, srv.URL+"/v1/simulate",
		`{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}}`)
	if loose.StatusCode != http.StatusOK {
		t.Fatalf("loose status %d", loose.StatusCode)
	}
	if h := loose.Header; h.Get("Deprecation") != "" || h.Get("Link") != "" {
		t.Fatalf("loose shape marked deprecated: %v", h)
	}
	for _, body := range []string{
		`{"workload_ref":{"name":"wl5","scale":0.15,"seed":1},"options":{"policy":"sd","max_slowdown":10}}`,
		`{"workload":"wl5","workload_ref":{"name":"wl5"},"options":{}}`,
	} {
		resp := postJSON(t, srv.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "bad_request" {
			t.Fatalf("%s: envelope %v %+v", body, err, env)
		}
	}
}

// TestTraceCampaignLocalVsCoordinator is the acceptance scenario: the
// registered trace at 1.5x load with 30% malleable jobs, static vs SD,
// addressed as "workload":"trace:<digest>", must produce identical
// results from a local engine, a single worker, and a 2-worker
// coordinator fleet.
func TestTraceCampaignLocalVsCoordinator(t *testing.T) {
	info := registerServeTrace(t)
	body := fmt.Sprintf(`{"points":[
		{"workload":%q,"derivations":[
			{"op":"scale_load","fraction":0,"factor":1.5},
			{"op":"malleable_fraction","fraction":0.3}],
		 "options":{"policy":"static"}},
		{"workload":%q,"derivations":[
			{"op":"scale_load","fraction":0,"factor":1.5},
			{"op":"malleable_fraction","fraction":0.3}],
		 "options":{"policy":"sd","max_slowdown":10}}
	]}`, info.Ref, info.Ref)

	var req CreateCampaignRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sdpolicy.NewEngine(2, 16).Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}

	workers := startWorkers(t, 2)
	assertResultsMatch(t, runCampaign(t, workers[0], body, len(points)), want)
	assertResultsMatch(t, runCampaign(t, startCoordinator(t, workers).URL, body, len(points)), want)
}

// TestUnknownTraceDigestRejected: a tier that was never given the
// trace must fail the request with the unified 400 envelope instead of
// guessing at content.
func TestUnknownTraceDigestRejected(t *testing.T) {
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/simulate",
		`{"workload":"trace:ffffffffffffffff","options":{}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "bad_request" {
		t.Fatalf("envelope: %v %+v", err, env)
	}
}
