package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdpolicy"
)

// testServer shares one engine per test binary: endpoints hit the same
// cache, which is exactly the production topology.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(sdpolicy.NewEngine(4, 64), 4).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestSimulateEndpoint(t *testing.T) {
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/simulate",
		`{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res sdpolicy.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Workload == "" || res.Jobs == 0 || res.Makespan == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Policy != "sd-policy" {
		t.Fatalf("policy %q, want sd-policy", res.Policy)
	}
	if res.MalleableStarts == 0 {
		t.Fatal("SD run reported no malleable starts")
	}
}

func TestSimulateIsCachedAndDeterministic(t *testing.T) {
	srv := testServer(t)
	body := `{"workload":"wl1","scale":0.1,"seed":7,"options":{"policy":"sd"}}`
	read := func() string {
		resp := postJSON(t, srv.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	first, second := read(), read()
	if first != second {
		t.Fatalf("repeated request differs:\n%s\nvs\n%s", first, second)
	}
	// The repeat must be a cache hit, visible in /healthz.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 4 {
		t.Fatalf("health: %+v", h)
	}
	if h.CacheHits == 0 {
		t.Fatalf("no cache hit recorded after identical request: %+v", h)
	}
}

func TestSimulateMalleableFraction(t *testing.T) {
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/simulate",
		`{"workload":"wl1","scale":0.1,"seed":1,"malleable_fraction":0,"options":{"policy":"sd"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res sdpolicy.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	// With zero malleable jobs SD-Policy cannot co-schedule anything.
	if res.MalleableStarts != 0 {
		t.Fatalf("all-rigid workload had %d malleable starts", res.MalleableStarts)
	}
}

// TestSweepEndpoint: the Figures 1-3 sweep is the sweep_maxsd
// experiment resource, agreeing exactly with the library path.
func TestSweepEndpoint(t *testing.T) {
	srv := testServer(t)
	raw, err := RunRemoteExperiment(context.Background(), nil, []string{srv.URL}, "sweep_maxsd",
		map[string]any{"workloads": []string{"wl5"}, "scale": 0.15, "seed": 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []sdpolicy.SweepRow
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := len(sdpolicy.MaxSDVariants())
	if len(got) != want {
		t.Fatalf("%d rows, want %d", len(got), want)
	}
	for _, row := range got {
		if row.Workload != "wl5" || row.AvgSlowdown <= 0 {
			t.Fatalf("bad row: %+v", row)
		}
	}
	// Cross-check against the library path: must agree exactly.
	rows, err := sdpolicy.SweepMaxSD([]string{"wl5"}, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != got[i] {
			t.Fatalf("row %d: HTTP %+v != library %+v", i, got[i], rows[i])
		}
	}
}

// TestRemovedAliases404: the request-scoped campaign alias and the
// sweep shortcut are gone; /v1/campaigns and the sweep_maxsd experiment
// replace them.
func TestRemovedAliases404(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/v1/campaign", "/v1/sweep"} {
		if resp := postJSON(t, srv.URL+path, `{}`); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"missing workload", "/v1/simulate", `{"scale":0.1}`, http.StatusBadRequest},
		{"unknown workload", "/v1/simulate", `{"workload":"wl99","scale":0.1}`, http.StatusBadRequest},
		{"bad scale", "/v1/simulate", `{"workload":"wl1","scale":2}`, http.StatusBadRequest},
		{"bad policy", "/v1/simulate", `{"workload":"wl1","scale":0.1,"options":{"policy":"nope"}}`, http.StatusBadRequest},
		{"malformed json", "/v1/simulate", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/simulate", `{"workload":"wl1","bogus":1}`, http.StatusBadRequest},
		{"fraction above 1", "/v1/simulate", `{"workload":"wl1","scale":0.1,"malleable_fraction":2}`, http.StatusBadRequest},
		{"negative fraction", "/v1/simulate", `{"workload":"wl1","scale":0.1,"malleable_fraction":-0.5}`, http.StatusBadRequest},
		{"missing workloads", "/v1/experiments", `{"experiment":"sweep_maxsd","params":{"workloads":[]}}`, http.StatusBadRequest},
		{"trailing data", "/v1/simulate", `{"workload":"wl5","scale":0.05} garbage`, http.StatusBadRequest},
		{"second value", "/v1/experiments", `{"experiment":"table2"}{"experiment":"table2"}`, http.StatusBadRequest},
		{"over 1 MiB", "/v1/simulate", `{"workload":"` + strings.Repeat("w", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
	}
	codes := map[int]string{http.StatusBadRequest: "bad_request", http.StatusRequestEntityTooLarge: "too_large"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			var env ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Message == "" {
				t.Fatalf("error envelope missing: %v (%+v)", err, env)
			}
			if env.Error.Code != codes[tc.want] {
				t.Fatalf("error code %q, want %s", env.Error.Code, codes[tc.want])
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET simulate: status %d", resp.StatusCode)
	}
	r2 := postJSON(t, srv.URL+"/healthz", `{}`)
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz: status %d", r2.StatusCode)
	}
}

func TestConcurrentIdenticalRequestsSimulateOnce(t *testing.T) {
	engine := sdpolicy.NewEngine(4, 64)
	srv := httptest.NewServer(New(engine, 8).Handler())
	defer srv.Close()
	body := `{"workload":"wl1","scale":0.08,"seed":3,"options":{"policy":"sd","max_slowdown":10}}`
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/simulate", "application/json",
				strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = &http.ProtocolError{ErrorString: resp.Status}
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	_, misses := engine.CacheStats()
	if misses != 1 {
		t.Fatalf("%d simulations for %d identical requests, want 1", misses, n)
	}
}
