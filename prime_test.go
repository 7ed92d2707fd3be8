package sdpolicy

import (
	"context"
	"encoding/json"
	"math"
	"testing"
)

// TestPrimeFromWireResultRoundTrips is the result frame's report
// contract at the API level: a Result that crossed the wire (public JSON only),
// restored with SetReportJSON and primed into a second engine, must
// serve the same campaign point as a pure cache hit with byte-equal
// output — and survive a PersistCache round trip with its per-job
// report intact.
func TestPrimeFromWireResultRoundTrips(t *testing.T) {
	ctx := context.Background()
	point := NewPoint("wl5", 0.2, 1, Options{Policy: "sd", MaxSlowdown: 10})

	source := NewEngine(2, 16)
	want, err := source.SimulatePoint(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	reportJSON, err := want.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}

	// Cross the wire: marshal/unmarshal keeps only public fields, the
	// frame's "report" key carries the rest.
	wire, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var restored Result
	if err := json.Unmarshal(wire, &restored); err != nil {
		t.Fatal(err)
	}
	if err := restored.SetReportJSON(reportJSON); err != nil {
		t.Fatal(err)
	}

	warmed := NewEngine(2, 16)
	if err := warmed.Prime(point, &restored); err != nil {
		t.Fatal(err)
	}
	got, err := warmed.SimulatePoint(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := warmed.CacheStats()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits %d misses %d after priming, want 1 and 0", hits, misses)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wire) {
		t.Fatalf("primed result diverged:\n%s\nvs\n%s", gotJSON, wire)
	}
	if len(got.Daily()) == 0 || len(got.Daily()) != len(want.Daily()) {
		t.Fatalf("primed report lost daily rows: %d vs %d", len(got.Daily()), len(want.Daily()))
	}

	// The primed entry persists and reloads like a simulated one.
	dir := t.TempDir()
	persisted := NewEngine(2, 16)
	_, closeLog := persistCache(t, persisted, dir)
	if err := persisted.Prime(point, &restored); err != nil {
		t.Fatal(err)
	}
	if n := closeLog(); n != 1 {
		t.Fatalf("appended %d entries, want 1", n)
	}
	reloaded := NewEngine(2, 16)
	persistCache(t, reloaded, dir)
	res, err := reloaded.SimulatePoint(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := reloaded.CacheStats(); misses != 0 {
		t.Fatal("reloaded log did not serve the point from cache")
	}
	if len(res.Daily()) != len(want.Daily()) {
		t.Fatal("report lost across the log round trip")
	}
}

// TestPrimeRejectsBadInputs: a nil result or an invalid point must not
// poison the cache.
func TestPrimeRejectsBadInputs(t *testing.T) {
	e := NewEngine(1, 4)
	if err := e.Prime(NewPoint("wl1", 0.1, 1, Options{}), nil); err == nil {
		t.Fatal("nil result primed")
	}
	bad := NewPoint("wl1", 0.1, 1, Options{})
	bad.Scale = math.NaN() // a NaN key could never be looked up again
	if err := e.Prime(bad, &Result{}); err == nil {
		t.Fatal("invalid point primed")
	}
	// Priming into a cache-disabled engine is a harmless no-op.
	off := NewEngine(1, 0)
	if err := off.Prime(NewPoint("wl1", 0.1, 1, Options{}), &Result{}); err != nil {
		t.Fatal(err)
	}
}
