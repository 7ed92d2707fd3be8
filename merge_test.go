package sdpolicy

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// persistCache turns on dir as e's result store, failing the test on
// error. The returned close also runs at cleanup.
func persistCache(t *testing.T, e *Engine, dir string) (CacheMergeStats, func() int) {
	t.Helper()
	stats, closeLog, err := e.PersistCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeLog() })
	return stats, func() int {
		t.Helper()
		n, err := closeLog()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// cacheLogPaths lists the cache logs in dir.
func cacheLogPaths(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// copyLogs copies every cache log of src into dst, keeping names: the
// reduce step of a map-reduce campaign.
func copyLogs(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range cacheLogPaths(t, src) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// assertReplayWarm runs points on a fresh engine loading dir and checks
// it simulates nothing and matches want.
func assertReplayWarm(t *testing.T, dir string, points []Point, want []*Result) {
	t.Helper()
	cold := NewEngine(2, 64)
	persistCache(t, cold, dir)
	got, err := cold.Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cold.CacheStats(); misses != 0 {
		t.Fatalf("replay from %s simulated %d points, want 0", dir, misses)
	}
	for i := range want {
		resultsEquivalent(t, points[i].Workload, want[i], got[i])
	}
}

// TestMergeCacheMapReduce: each shard of a campaign runs in its own
// engine and cache directory; copying the three directories' logs into
// one answers the full campaign without a single simulation,
// identically to a single-process run.
func TestMergeCacheMapReduce(t *testing.T) {
	ctx := context.Background()
	points := shardTestPoints()
	shards, err := PlanShards(points, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	merged := filepath.Join(base, "merged")
	for i, s := range shards {
		dir := filepath.Join(base, "shard", string(rune('a'+i)))
		engine := NewEngine(2, 64)
		_, closeLog := persistCache(t, engine, dir)
		if _, err := engine.Run(ctx, s.Points); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		closeLog()
		copyLogs(t, dir, merged)
	}
	want, err := NewEngine(2, 64).Run(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := persistCache(t, NewEngine(2, 64), merged)
	// 6 points, one canonical duplicate and one legacy-fraction
	// spelling of a derived point: 4 distinct entries in 3 logs.
	if stats.Files != 3 || stats.Entries != 4 || len(stats.Conflicts) != 0 || len(stats.Skipped) != 0 {
		t.Fatalf("stats = %+v, want 3 logs, 4 entries, no conflicts or skips", stats)
	}
	assertReplayWarm(t, merged, points, want)
}

// TestMergeCacheOverlappingEntries: the same point logged by two
// processes (identical payloads) coalesces without a conflict.
func TestMergeCacheOverlappingEntries(t *testing.T) {
	ctx := context.Background()
	p := NewPoint("wl5", 0.2, 1, Options{Policy: "static"})
	base := t.TempDir()
	merged := filepath.Join(base, "merged")
	for _, name := range []string{"a", "b"} {
		dir := filepath.Join(base, name)
		engine := NewEngine(1, 8)
		_, closeLog := persistCache(t, engine, dir)
		if _, err := engine.Run(ctx, []Point{p}); err != nil {
			t.Fatal(err)
		}
		closeLog()
		copyLogs(t, dir, merged)
	}
	stats, _ := persistCache(t, NewEngine(1, 8), merged)
	if stats.Files != 2 || stats.Entries != 1 || len(stats.Conflicts) != 0 {
		t.Fatalf("stats = %+v, want 2 logs, 1 entry, 0 conflicts", stats)
	}
}

// conflictingLogs returns one valid cache log for a wl5 point and a
// copy whose result disagrees, standing in for a determinism bug.
func conflictingLogs(t *testing.T) (good, bad []byte) {
	t.Helper()
	dir := t.TempDir()
	engine := NewEngine(1, 8)
	_, closeLog := persistCache(t, engine, dir)
	if _, err := engine.Run(context.Background(), []Point{NewPoint("wl5", 0.2, 1, Options{Policy: "static"})}); err != nil {
		t.Fatal(err)
	}
	closeLog()
	paths := cacheLogPaths(t, dir)
	if len(paths) != 1 {
		t.Fatalf("%d logs, want 1", len(paths))
	}
	good, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(good), "\n")
	var rec struct {
		Seq  uint64         `json:"seq"`
		Kind string         `json:"kind"`
		Data map[string]any `json:"data"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	rec.Data["result"].(map[string]any)["makespan"] = float64(1) // the divergent payload
	mutated, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return good, []byte(lines[0] + string(mutated) + "\n")
}

// TestMergeCacheConflictDeterministicWinner: conflicting payloads for
// one canonical point are reported, and the result served is the same
// whichever log is read first.
func TestMergeCacheConflictDeterministicWinner(t *testing.T) {
	good, bad := conflictingLogs(t)
	load := func(first, second []byte) (string, CacheMergeStats) {
		dir := t.TempDir()
		for i, data := range [][]byte{first, second} {
			name := filepath.Join(dir, "cache-"+string(rune('a'+i))+".journal")
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		engine := NewEngine(1, 8)
		stats, _ := persistCache(t, engine, dir)
		res, err := engine.SimulatePoint(context.Background(), NewPoint("wl5", 0.2, 1, Options{Policy: "static"}))
		if err != nil {
			t.Fatal(err)
		}
		if _, misses := engine.CacheStats(); misses != 0 {
			t.Fatalf("conflicting logs still simulated %d points", misses)
		}
		out, _ := json.Marshal(res)
		return string(out), stats
	}
	ab, statsAB := load(good, bad)
	ba, statsBA := load(bad, good)
	if ab != ba {
		t.Fatal("conflict winner depends on which log is read first")
	}
	for _, stats := range []CacheMergeStats{statsAB, statsBA} {
		if stats.Files != 2 || stats.Entries != 1 {
			t.Fatalf("stats = %+v, want 2 logs, 1 entry", stats)
		}
		if len(stats.Conflicts) != 1 || !strings.Contains(stats.Conflicts[0], "wl5") {
			t.Fatalf("conflicts = %v, want exactly 1 logged discrepancy naming the point", stats.Conflicts)
		}
	}
}

// TestSaveCacheMergesExistingSpill: a second engine persisting into a
// directory that already holds a log serves its entries, and appends
// only the key it adds — never one the directory already holds.
func TestSaveCacheMergesExistingSpill(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p1 := NewPoint("wl5", 0.2, 1, Options{Policy: "static"})
	p2 := NewPoint("wl5", 0.2, 1, Options{Policy: "sd", MaxSlowdown: 10})

	first := NewEngine(1, 8)
	_, closeFirst := persistCache(t, first, dir)
	if _, err := first.Run(ctx, []Point{p1}); err != nil {
		t.Fatal(err)
	}
	if n := closeFirst(); n != 1 {
		t.Fatalf("first engine appended %d entries, want 1", n)
	}

	second := NewEngine(1, 8)
	if stats, _ := persistCache(t, second, dir); stats.Entries != 1 {
		t.Fatalf("second engine loaded %+v, want 1 entry", stats)
	}
	want, err := second.Run(ctx, []Point{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := second.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", hits, misses)
	}
	if n := len(cacheLogPaths(t, dir)); n != 2 {
		t.Fatalf("%d logs, want one per engine", n)
	}
	assertReplayWarm(t, dir, []Point{p1, p2}, want)
	// The replay simulated nothing, so it created no log of its own.
	if n := len(cacheLogPaths(t, dir)); n != 2 {
		t.Fatalf("%d logs after a warm replay, want 2", n)
	}
}

// TestSaveCacheRefusesToClobberCorruptSpill: a corrupt log in the
// directory is skipped, never rewritten — new results go to a log of
// their own and the corrupt bytes stay as they were.
func TestSaveCacheRefusesToClobberCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "cache-corrupt.journal")
	if err := os.WriteFile(corrupt, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(1, 8)
	stats, closeLog := persistCache(t, engine, dir)
	if len(stats.Skipped) != 1 || !strings.Contains(stats.Skipped[0], "cache-corrupt") {
		t.Fatalf("skipped = %v, want the corrupt log named", stats.Skipped)
	}
	p := NewPoint("wl5", 0.2, 1, Options{Policy: "static"})
	want, err := engine.Run(context.Background(), []Point{p})
	if err != nil {
		t.Fatal(err)
	}
	if n := closeLog(); n != 1 {
		t.Fatalf("appended %d entries, want 1", n)
	}
	if data, _ := os.ReadFile(corrupt); string(data) != "{not json\n" {
		t.Fatal("corrupt log was rewritten")
	}
	assertReplayWarm(t, dir, []Point{p}, want)
}

// TestSaveCacheConcurrentWriters: three engines persisting into one
// directory at once each write their own log; together the logs answer
// the whole campaign.
func TestSaveCacheConcurrentWriters(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	points := shardTestPoints()
	shards, err := PlanShards(points, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(shards))
	for _, s := range shards {
		wg.Add(1)
		go func(s CampaignShard) {
			defer wg.Done()
			engine := NewEngine(1, 32)
			_, closeLog, err := engine.PersistCache(dir)
			if err != nil {
				errs <- err
				return
			}
			_, err = engine.Run(ctx, s.Points)
			if _, cerr := closeLog(); err == nil {
				err = cerr
			}
			errs <- err
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := NewEngine(2, 64).Run(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	assertReplayWarm(t, dir, points, want)
}

// TestMergeCacheRejectsOverflow: a directory holding more entries than
// the engine's cache primes only those that fit, in first-occurrence
// order, and counts the rest; the rest re-simulate on replay but are
// not appended again.
func TestMergeCacheRejectsOverflow(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	points := []Point{
		NewPoint("wl5", 0.2, 1, Options{Policy: "static"}),
		NewPoint("wl5", 0.2, 1, Options{Policy: "sd", MaxSlowdown: 10}),
	}
	big := NewEngine(1, 8)
	_, closeBig := persistCache(t, big, dir)
	if _, err := big.Run(ctx, points[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Run(ctx, points[1:]); err != nil {
		t.Fatal(err)
	}
	closeBig()

	small := NewEngine(1, 1)
	stats, closeSmall := persistCache(t, small, dir)
	if stats.Entries != 2 || stats.Overflow != 1 {
		t.Fatalf("stats = %+v, want 2 entries, 1 overflowing", stats)
	}
	if _, err := small.Run(ctx, points[:1]); err != nil {
		t.Fatal(err)
	}
	if _, misses := small.CacheStats(); misses != 0 {
		t.Fatal("the entry that fits was not served from the directory")
	}
	if _, err := small.Run(ctx, points[1:]); err != nil {
		t.Fatal(err)
	}
	if _, misses := small.CacheStats(); misses != 1 {
		t.Fatalf("%d misses, want the overflowing entry re-simulated once", misses)
	}
	if n := closeSmall(); n != 0 {
		t.Fatalf("appended %d entries the directory already held", n)
	}
}

// TestPersistCacheAppendsEachKeyOnce: a point simulated again after an
// LRU eviction, or primed twice (two positions, two spellings), is
// appended once.
func TestPersistCacheAppendsEachKeyOnce(t *testing.T) {
	ctx := context.Background()
	p1 := NewPoint("wl5", 0.2, 1, Options{Policy: "static"})
	p2 := NewPoint("wl5", 0.2, 1, Options{Policy: "sd", MaxSlowdown: 10})
	p3 := NewPoint("wl5", 0.2, 2, Options{Policy: "static"})
	engine := NewEngine(1, 1)
	_, closeLog := persistCache(t, engine, t.TempDir())
	for _, p := range []Point{p1, p2, p1} {
		if _, err := engine.SimulatePoint(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := engine.CacheStats(); misses != 3 {
		t.Fatalf("%d misses, want p1 evicted and simulated twice", misses)
	}
	res3, err := NewEngine(1, 0).SimulatePoint(ctx, p3)
	if err != nil {
		t.Fatal(err)
	}
	p3Spelled := p3
	p3Spelled.Options.Policy = "" // canonicalises to static
	for _, p := range []Point{p3, p3Spelled} {
		if err := engine.Prime(p, res3); err != nil {
			t.Fatal(err)
		}
	}
	if n := closeLog(); n != 3 {
		t.Fatalf("appended %d entries, want 3", n)
	}
}

// TestMergeCacheRejectsBadInputs: a cache directory that cannot be
// opened fails PersistCache, and an engine persists into one directory
// only.
func TestMergeCacheRejectsBadInputs(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewEngine(1, 8).PersistCache(file); err == nil {
		t.Fatal("a regular file accepted as the cache directory")
	}
	engine := NewEngine(1, 8)
	persistCache(t, engine, t.TempDir())
	if _, _, err := engine.PersistCache(t.TempDir()); err == nil {
		t.Fatal("second PersistCache on one engine accepted")
	}
	if _, _, err := NewEngine(1, 8).PersistCache(""); err == nil {
		t.Fatal("empty directory name accepted")
	}
}
