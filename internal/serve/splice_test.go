package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdpolicy"
	"sdpolicy/internal/journal"
)

// oldResultFrame is the struct every result frame was json.Marshal'ed
// from before frames were spliced from bytes encoded once. A spliced
// frame must equal its encoding byte for byte.
type oldResultFrame struct {
	Seq    uint64           `json:"seq"`
	Index  int              `json:"index"`
	Point  sdpolicy.Point   `json:"point"`
	Result *sdpolicy.Result `json:"result"`
	Report json.RawMessage  `json:"report,omitempty"`
}

// splicedFrame is a result frame with its result and report kept as
// the bytes the frame holds.
type splicedFrame struct {
	Seq    uint64          `json:"seq"`
	Index  *int            `json:"index"`
	Result json.RawMessage `json:"result"`
	Report json.RawMessage `json:"report"`
}

// goldenCampaignBody is a campaign of the 45 points of the golden file,
// spelled as the file spells them, and the testdata/sample.swf trace
// point.
func goldenCampaignBody(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden_equivalence.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var specs []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var l struct {
			Point json.RawMessage `json:"point"`
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, string(l.Point))
	}
	if len(specs) != 45 {
		t.Fatalf("the golden file holds %d points, want 45", len(specs))
	}
	info, err := sdpolicy.RegisterTraceFile("../../testdata/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, `{"workload":"`+info.Ref+`","options":{"policy":"sd","max_slowdown":10}}`)
	return `{"points":[` + strings.Join(specs, ",") + `]}`
}

// TestSplicedFramesMatchMarshal: a result frame is spliced from the
// point's and the result's encodings, each made once. Over the golden
// points and the sample trace point, with and without reports, on a
// local server and through a coordinator, every result frame equals
// json.Marshal of the frame struct it was encoded from before, and
// every result decodes and encodes back to the bytes the frame holds.
func TestSplicedFramesMatchMarshal(t *testing.T) {
	body := goldenCampaignBody(t)
	var req CreateCampaignRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		t.Fatal(err)
	}
	// One engine simulates every point once; the servers and the
	// workers share it, so each campaign below is cache hits.
	engine := sdpolicy.NewEngine(2, 256)
	want, err := engine.Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	server := func() string {
		srv := httptest.NewServer(New(engine, 4).Handler())
		t.Cleanup(srv.Close)
		return srv.URL
	}
	coord := startCoordinator(t, []string{server(), server()})
	for _, tc := range []struct{ name, base string }{{"local", server()}, {"coordinator", coord.URL}} {
		for _, reports := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reports=%v", tc.name, reports), func(t *testing.T) {
				b := body
				if reports {
					b = `{"reports":true,` + body[1:]
				}
				results := 0
				for _, line := range attachLines(t, tc.base, createCampaign(t, tc.base, "", b), 0) {
					var f splicedFrame
					if err := json.Unmarshal([]byte(line), &f); err != nil {
						t.Fatalf("frame %s: %v", line, err)
					}
					if f.Index == nil {
						continue
					}
					results++
					i := *f.Index
					old := oldResultFrame{Seq: f.Seq, Index: i, Point: points[i], Result: want[i]}
					if reports {
						if old.Report, err = want[i].ReportJSON(); err != nil {
							t.Fatal(err)
						}
					}
					oldLine, err := json.Marshal(old)
					if err != nil {
						t.Fatal(err)
					}
					if line != string(oldLine) {
						t.Fatalf("index %d: frame\n%s\nwant\n%s", i, line, oldLine)
					}
					var res sdpolicy.Result
					if err := json.Unmarshal(f.Result, &res); err != nil {
						t.Fatal(err)
					}
					if again, err := json.Marshal(&res); err != nil || !bytes.Equal(again, f.Result) {
						t.Fatalf("index %d: result %s encodes back to %s (%v)", i, f.Result, again, err)
					}
				}
				if results != len(points) {
					t.Fatalf("%d result frames, want %d", results, len(points))
				}
			})
		}
	}
	// A coordinator reads a result line in one pass while it echoes the
	// coordinator's own encoding of its point (shardStream). Every
	// result line a worker streams for a shard body spliced from those
	// encodings must, so a change to a frame's, a point's or a result's
	// layout that would turn the line path off fails here.
	t.Run("worker-lines", func(t *testing.T) {
		cs, err := newCampaignState("c", points, nil, false, false)
		if err != nil {
			t.Fatal(err)
		}
		shardBody, err := pointsObject(cs.wire, struct{}{})
		if err != nil {
			t.Fatal(err)
		}
		base := server()
		lines := attachLines(t, base, createCampaign(t, base, "", string(shardBody)), 0)
		frames := newShardStream(strings.NewReader(strings.Join(lines, "\n")+"\n"), cs.wire)
		for frames.next(new(streamFrame)) == nil {
		}
		if frames.lines != len(points) {
			t.Fatalf("%d of %d result frames read line by line", frames.lines, len(points))
		}
	})
}

// TestCreateBodiesTakeTheReadersPath: every create body the system
// writes itself, json.Marshal of a CreateCampaignRequest and the body
// pointsObject splices for sdexp -server and a coordinator's shards,
// is read in one pass, to the request the strict decoder reads from
// it, with its points' wire encodings kept. A typo in createTails or a
// request field json.Marshal writes and the reader does not follow
// fails here instead of sending every create back to the decoder. Any
// other tail is declined.
func TestCreateBodiesTakeTheReadersPath(t *testing.T) {
	var golden CreateCampaignRequest
	if err := json.Unmarshal([]byte(goldenCampaignBody(t)), &golden); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(golden.Points)
	if err != nil {
		t.Fatal(err)
	}
	wire, specs := make([][]byte, len(points)), make([]sdpolicy.PointSpec, len(points))
	for i, p := range points {
		if wire[i], err = p.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(wire[i], &specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []campaignOptions{{}, {Reports: true}, {Trace: true}, {Reports: true, Trace: true}} {
		marshalled, err := json.Marshal(CreateCampaignRequest{Points: specs, Reports: opts.Reports, Trace: opts.Trace})
		if err != nil {
			t.Fatal(err)
		}
		spliced, err := pointsObject(wire, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{marshalled, spliced, append(spliced, '\n')} {
			var want CreateCampaignRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil {
				t.Fatal(err)
			}
			req, got, ok := readCreate(body)
			if !ok {
				t.Fatalf("the reader declines %s", body)
			}
			if !reflect.DeepEqual(req, want) {
				t.Fatalf("the reader read %+v, the decoder %+v", req, want)
			}
			for i := range wire {
				if !bytes.Equal(got[i], wire[i]) {
					t.Fatalf("point %d keeps %s, want %s", i, got[i], wire[i])
				}
			}
		}
	}
	for _, tail := range []string{`,"reports":false}`, `,"trace":true,"reports":true}`, `, "trace":true}`,
		`,"experiment":"sweep_maxsd"}`, `,"params":[]}`, `}{}`, `]}`} {
		body := `{"points":[` + string(wire[0]) + `]` + tail
		if _, _, ok := readCreate([]byte(body)); ok {
			t.Errorf("the reader accepts %s", body)
		}
	}
}

// TestCoordinatorCompactsRelayedReports: a journaled coordinator relays
// a worker's report compacted and HTML-escaped, as json.Marshal wrote
// the RawMessage it relayed before. A report holding insignificant
// whitespace, a newline and a "<" still gives a one-line frame that
// equals the old bytes, and the journal holds the same bytes.
func TestCoordinatorCompactsRelayedReports(t *testing.T) {
	const report = "{ \"rows\" : [1, 2],\n \"note\": \"<b> & </b>\" }"
	result := &sdpolicy.Result{Workload: "wl5-test", Policy: "sd-policy", Jobs: 3, Makespan: 10, AvgSlowdown: 1.25}
	resultJSON, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	// The worker names each shard after its size, and streams that
	// many results with the report, then done.
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			var req CreateCampaignRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || !req.Reports {
				http.Error(w, fmt.Sprintf("want a report campaign (%v)", err), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintf(w, `{"id":"shard-%d"}`, len(req.Points))
			return
		}
		var n int
		fmt.Sscanf(r.URL.Path, "/v1/campaigns/shard-%d", &n)
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "{\"seq\":%d,\"index\":%d,\"result\":%s,\"report\":%s}\n", i+1, i, resultJSON, report)
		}
		fmt.Fprintf(w, "{\"seq\":%d,\"done\":true,\"points\":%d}\n", n+1, n)
	}))
	t.Cleanup(worker.Close)

	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sdpolicy.NewEngine(1, 0), 4)
	s.EnableJournal(j)
	if err := s.EnableCoordinator(CoordinatorConfig{Workers: []string{worker.URL}, ProbeInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.BeginShutdown)
	s.Activate()
	coord := httptest.NewServer(s.Handler())
	t.Cleanup(coord.Close)

	points := campaignTestPoints(t)
	id := createCampaign(t, coord.URL, "relay", `{"reports":true,`+campaignPointsBody[1:])
	lines := attachLines(t, coord.URL, id, 0)
	if len(lines) != len(points)+1 {
		t.Fatalf("%d lines, want %d results and done:\n%s", len(lines), len(points), strings.Join(lines, "\n"))
	}
	recs, err := j.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines[:len(points)] {
		var f splicedFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil || f.Index == nil {
			t.Fatalf("frame %s is not a result (%v)", line, err)
		}
		oldLine, err := json.Marshal(oldResultFrame{Seq: f.Seq, Index: *f.Index, Point: points[*f.Index],
			Result: result, Report: json.RawMessage(report)})
		if err != nil {
			t.Fatal(err)
		}
		if line != string(oldLine) {
			t.Fatalf("frame\n%s\nwant\n%s", line, oldLine)
		}
		if got := string(recs[f.Seq].Data); got != line {
			t.Fatalf("journal record %d\n%s\nwant the frame\n%s", f.Seq, got, line)
		}
	}
}
