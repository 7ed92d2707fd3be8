package sdpolicy

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"sdpolicy/internal/reducer"
)

// testTraceSWF is a tiny but simulatable SWF log: a 4-node machine of
// 4-core nodes and three rigid-recorded jobs (compiled as malleable).
const testTraceSWF = `; MaxNodes: 4
; MaxProcs: 16
1 0 5 100 -1 -1 -1 8 200 -1 1 -1 -1 -1 1 1 -1 -1
2 30 -1 60 -1 -1 -1 4 90 -1 1 -1 -1 -1 1 1 -1 -1
3 80 -1 40 -1 -1 -1 4 40 -1 1 -1 -1 -1 1 1 -1 -1
`

func registerTestTrace(t *testing.T) TraceInfo {
	t.Helper()
	info, err := RegisterTrace([]byte(testTraceSWF), "workloads_test.swf")
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestPointSpecRejectsMixedRef: workload_ref is not a PointSpec field,
// so the strict decode every wire layer uses refuses it, alone or mixed
// with the loose fields.
func TestPointSpecRejectsMixedRef(t *testing.T) {
	for _, body := range []string{
		`[{"workload":"wl1","workload_ref":{"name":"wl1"},"options":{}}]`,
		`[{"workload_ref":{"name":"wl1","scale":0.25,"seed":9},"options":{"policy":"sd"}}]`,
	} {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var specs []PointSpec
		if err := dec.Decode(&specs); err == nil {
			t.Errorf("%s decoded", body)
		}
	}
}

// TestPointWorkloadRefWire: a decoder that tolerates unknown fields
// (journal recovery) drops workload_ref, and PointsFromSpecs then
// rejects the point for its missing workload instead of running
// anything.
func TestPointWorkloadRefWire(t *testing.T) {
	var specs []PointSpec
	body := `[{"workload_ref":{"trace":"trace:ca9b6a7f62b5e8e3"},"options":{"policy":"sd"}}]`
	if err := json.Unmarshal([]byte(body), &specs); err != nil {
		t.Fatal(err)
	}
	if _, err := PointsFromSpecs(specs); !errors.Is(err, ErrBadInput) {
		t.Fatalf("workload_ref point: %v, want ErrBadInput", err)
	}
}

// TestTracePointCanonical: a trace's content is pinned by its digest,
// so differently-spelled generation parameters must collapse to one
// cache identity — and therefore one simulation.
func TestTracePointCanonical(t *testing.T) {
	info := registerTestTrace(t)
	opt := Options{Policy: "sd", MaxSlowdown: 10}
	a := NewPoint(info.Ref, 0.5, 9, opt).canonical()
	b := NewPoint(info.Ref, 1, 1, opt).canonical()
	if a != b {
		t.Fatalf("trace points did not canonicalise together:\n%+v\n%+v", a, b)
	}
	if g := NewPoint("wl1", 0.5, 9, opt).canonical(); g.Scale != 0.5 || g.Seed != 9 {
		t.Fatalf("generator point lost its parameters: %+v", g)
	}

	// The fold is live end to end: the second spelling must be a cache
	// hit, not a second simulation.
	engine := NewEngine(2, 16)
	ctx := context.Background()
	if _, err := engine.Run(ctx, []Point{NewPoint(info.Ref, 0.5, 9, opt)}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(ctx, []Point{NewPoint(info.Ref, 1, 1, opt)}); err != nil {
		t.Fatal(err)
	}
	hits, misses := engine.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache: %d hits, %d misses; want 1 and 1", hits, misses)
	}
}

// TestWorkloadRefName: the real_trace experiment names its trace with
// or without the "trace:" prefix, and both resolve to the same
// canonical "trace:<digest>" workload on every point.
func TestWorkloadRefName(t *testing.T) {
	for _, trace := range []string{"trace:abcd", "abcd"} {
		x, err := realTraceInstance(reducer.Params{"trace": trace})
		if err != nil {
			t.Fatalf("%q: %v", trace, err)
		}
		for _, pt := range x.points {
			if pt.Workload != "trace:abcd" {
				t.Fatalf("%q resolved to %q", trace, pt.Workload)
			}
		}
	}
}

func TestRealTraceExperiment(t *testing.T) {
	info := registerTestTrace(t)
	engine := NewEngine(2, 16)
	out, err := engine.Experiment(context.Background(), "real_trace", reducer.Params{
		"trace":       info.Ref,
		"load_factor": 1.5,
		"qos_class":   "gold",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := out.(*RealRunReport)
	if !ok {
		t.Fatalf("summary type %T", out)
	}
	if rep.Static == nil || rep.SD == nil || rep.Static.Jobs != info.Jobs {
		t.Fatalf("report: %+v", rep)
	}
	// The bare digest names the same trace: the same points, served
	// from the cache.
	bare, err := engine.Experiment(context.Background(), "real_trace", reducer.Params{
		"trace":       info.Digest,
		"load_factor": 1.5,
		"qos_class":   "gold",
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("prefixed and bare digests differ:\n%s\n%s", a, b)
	}
	if hits, _ := engine.CacheStats(); hits != 2 {
		t.Fatalf("bare digest: %d cache hits, want 2", hits)
	}
	if _, err := engine.Experiment(context.Background(), "real_trace", reducer.Params{}); err == nil {
		t.Fatal("missing trace parameter accepted")
	}
}

func TestRegisterTraceRejectsGarbage(t *testing.T) {
	if _, err := RegisterTrace([]byte("not an swf\n"), "bad.swf"); err == nil {
		t.Fatal("garbage registered")
	}
	if _, ok := TraceByRef("trace:0000000000000000"); ok {
		t.Fatal("unknown digest resolved")
	}
	if _, ok := TraceByRef("wl1"); ok {
		t.Fatal("generator name resolved as a trace")
	}
}
