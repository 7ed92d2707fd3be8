package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sdpolicy"
	"sdpolicy/internal/sched"
	"sdpolicy/internal/workload"
)

// TestRunMatchesEnginePoint: sdsim prints the numbers of the campaign
// point its flags spell, run through sdpolicy.Engine, the digest of
// that point's per-job results, and the event, pass, selection and memo
// hit counts of the point's workload and options run through sched.Run.
func TestRunMatchesEnginePoint(t *testing.T) {
	info, err := sdpolicy.RegisterTraceFile("../../testdata/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	engine := sdpolicy.NewEngine(1, 0)
	for _, tc := range []struct {
		args  string
		point string
	}{
		{"-swf ../../testdata/sample.swf -policy sd -maxsd 10",
			`{"workload":"` + info.Ref + `","options":{"policy":"sd","max_slowdown":10}}`},
		// -depth is conservative backfill: every examined job holds a
		// reservation, as with the point's backfill_depth.
		{"-wl wl4 -scale 0.05 -policy sd -maxsd 10 -depth 1000",
			`{"workload":"wl4","scale":0.05,"options":{"policy":"sd","max_slowdown":10,"backfill_depth":1000}}`},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatal(err)
			}
			var spec sdpolicy.PointSpec
			if err := json.Unmarshal([]byte(tc.point), &spec); err != nil {
				t.Fatal(err)
			}
			points, err := sdpolicy.PointsFromSpecs([]sdpolicy.PointSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.SimulatePoint(context.Background(), points[0])
			if err != nil {
				t.Fatal(err)
			}
			p := points[0]
			w, err := workload.Shared.Get(p.Workload, p.Scale, p.Seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := p.Options.Config()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := sched.Run(*w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			report, err := res.ReportJSON()
			if err != nil {
				t.Fatal(err)
			}
			var rep struct{ Results json.RawMessage }
			if err := json.Unmarshal(report, &rep); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf("workload      %s (", res.Workload),
				fmt.Sprintf("makespan      %d s\n", res.Makespan),
				fmt.Sprintf("avg response  %.1f s\n", res.AvgResponse),
				fmt.Sprintf("avg slowdown  %.1f\n", res.AvgSlowdown),
				fmt.Sprintf("energy        %.1f kWh\n", res.EnergyKWh),
				fmt.Sprintf("malleable     %d starts", res.MalleableStarts),
				fmt.Sprintf("sim           %d events, %d passes (selections %d, memo hits %d) in ",
					direct.Events, direct.Passes, direct.Selections, direct.MemoHits),
				fmt.Sprintf("digest        %x\n", sha256.Sum256(rep.Results)),
			} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}
