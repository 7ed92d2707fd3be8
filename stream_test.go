package sdpolicy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func streamTestPoints() []Point {
	var pts []Point
	for _, wl := range []string{"wl1", "wl5"} {
		pts = append(pts,
			NewPoint(wl, campaignTestScale, 1, Options{Policy: "static"}),
			NewPoint(wl, campaignTestScale, 1, Options{Policy: "sd", MaxSlowdown: 10}),
			NewPoint(wl, campaignTestScale, 1, Options{Policy: "sd", DynamicCutoff: "avg"}),
		)
	}
	return pts
}

// TestEngineRunStreamMatchesSequentialRun is the acceptance check that
// streaming costs no determinism: the merged slice of a parallel,
// streamed campaign is byte-identical (JSON) to a sequential Run of the
// same points, and every point is also delivered exactly once on the
// updates channel with a result identical to its slot in the merge.
func TestEngineRunStreamMatchesSequentialRun(t *testing.T) {
	points := streamTestPoints()
	seqRes, err := NewEngine(1, 0).Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(seqRes)
	if err != nil {
		t.Fatal(err)
	}

	updates := make(chan PointResult, len(points))
	parRes, err := NewEngine(8, 0).RunStream(context.Background(), points, updates)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(parRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("streamed parallel merge differs from sequential run:\n%s\nvs\n%s", got, want)
	}
	seen := make(map[int]bool)
	for u := range updates {
		if seen[u.Index] {
			t.Fatalf("index %d streamed twice", u.Index)
		}
		seen[u.Index] = true
		if u.Point != points[u.Index] {
			t.Fatalf("update %d echoes point %+v, want %+v", u.Index, u.Point, points[u.Index])
		}
		uj, _ := json.Marshal(u.Result)
		sj, _ := json.Marshal(parRes[u.Index])
		if string(uj) != string(sj) {
			t.Fatalf("streamed result %d differs from merged slice", u.Index)
		}
	}
	if len(seen) != len(points) {
		t.Fatalf("%d of %d points streamed", len(seen), len(points))
	}
}

// TestEngineCancelAbortsInFlightPoint verifies mid-simulation
// cancellation through the whole stack: cancelling a campaign whose
// only point is already simulating returns context.Canceled in a small
// fraction of the point's runtime instead of finishing the point.
func TestEngineCancelAbortsInFlightPoint(t *testing.T) {
	point := NewPoint("wl1", 0.3, 1, Options{Policy: "sd", MaxSlowdown: 10})

	start := time.Now()
	if _, err := NewEngine(1, 0).SimulatePoint(context.Background(), point); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(full/20, cancel)
	start = time.Now()
	_, err := NewEngine(1, 0).SimulatePoint(ctx, point)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > full/2 {
		t.Fatalf("cancelled campaign returned after %v; the point runs %v — in-flight abort not prompt", elapsed, full)
	}
}

func TestPointSpecDefaultsAndRoundTrip(t *testing.T) {
	var specs []PointSpec
	if err := json.Unmarshal([]byte(`[
		{"workload":"wl1","options":{"policy":"sd","max_slowdown":10}},
		{"workload":"wl2","scale":0.25,"seed":9,"malleable_fraction":0.5,"options":{}}
	]`), &specs); err != nil {
		t.Fatal(err)
	}
	a := specs[0].Point()
	if a.Scale != 1 || a.Seed != 1 || a.MalleableFraction != -1 {
		t.Fatalf("defaults not applied: %+v", a)
	}
	b := specs[1].Point()
	if b.Scale != 0.25 || b.Seed != 9 || b.MalleableFraction != 0.5 {
		t.Fatalf("explicit fields lost: %+v", b)
	}
	// Echoed points are themselves valid PointSpecs: the -1 keep-mix
	// sentinel must not leak into the JSON.
	for _, p := range []Point{a, b} {
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(enc), "-1") {
			t.Fatalf("sentinel leaked: %s", enc)
		}
		var spec PointSpec
		if err := json.Unmarshal(enc, &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("echoed point %s failed validation: %v", enc, err)
		}
		if got := spec.Point(); got != p {
			t.Fatalf("round trip: %+v != %+v", got, p)
		}
		// And decoding straight back into Point restores the keep-mix
		// sentinel instead of defaulting the fraction to 0.
		var back Point
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Fatalf("Point round trip: %+v != %+v", back, p)
		}
	}
}

// FuzzPointSpecs decodes a points body as every wire layer does, with
// unknown fields refused, and converts it. Every conversion error must
// be ErrBadInput, and every point's echo must be a valid PointSpec that
// resubmits to the same cache key. The seeds are the golden campaign's
// points and a workload_ref body.
func FuzzPointSpecs(f *testing.F) {
	strict := func(data []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var specs []PointSpec
		if strict(data, &specs) != nil {
			return
		}
		points, err := PointsFromSpecs(specs)
		if err != nil {
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("conversion error %v is not ErrBadInput", err)
			}
			return
		}
		for i, p := range points {
			if err := p.validate(); err != nil {
				if !errors.Is(err, ErrBadInput) {
					t.Fatalf("point %d: validation error %v is not ErrBadInput", i, err)
				}
				continue
			}
			echo, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("point %d: %v", i, err)
			}
			var spec PointSpec
			if err := strict(echo, &spec); err != nil {
				t.Fatalf("point %d: echo %s does not decode: %v", i, echo, err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("point %d: echo %s fails validation: %v", i, echo, err)
			}
			if got, want := spec.Point().canonical(), p.canonical(); got != want {
				t.Fatalf("point %d: echo %s resubmits as\n%+v, want\n%+v", i, echo, got, want)
			}
		}
	})
}

func TestPointSpecValidate(t *testing.T) {
	bad := -0.5
	if err := (PointSpec{MalleableFraction: &bad}).Validate(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("missing workload + bad fraction: err = %v", err)
	}
	if err := (PointSpec{Workload: "wl1", MalleableFraction: &bad}).Validate(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative fraction accepted: err = %v", err)
	}
	ok := 0.5
	if err := (PointSpec{Workload: "wl1", MalleableFraction: &ok}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}
