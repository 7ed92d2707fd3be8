package sdpolicy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sdpolicy/internal/metrics"
)

// CacheFileName is the spill file maintained inside a cache directory
// (sdexp -cache-dir, Engine.MergeCache over directories).
const CacheFileName = "campaign-cache.json"

// cacheFileVersion guards the spill format: bump it when the canonical
// point encoding or the persisted result shape changes incompatibly, so
// stale files are refused instead of priming wrong results.
const cacheFileVersion = 1

// errCacheVersion marks a spill written under a different format
// version — the one decode failure SaveCache replaces rather than
// aborts on.
var errCacheVersion = errors.New("cache format version mismatch")

// cacheFile is the on-disk form of a campaign result cache: one entry
// per canonical point, sorted by the point's wire encoding, so the
// bytes of a spill are a pure function of its contents — independent of
// LRU recency, shard count, or the order concurrent writers finished.
type cacheFile struct {
	Version int              `json:"version"`
	Entries []cacheFileEntry `json:"entries"`
}

// cacheFileEntry persists one memoised simulation. The point is stored
// in its wire form (the same JSON a /v1/campaigns client sends); the
// per-job report — which Daily and the heatmaps need but the Result's
// public JSON omits — rides alongside so a restored Result is fully
// equivalent to a freshly simulated one.
type cacheFileEntry struct {
	Point  Point          `json:"point"`
	Result *Result        `json:"result"`
	Report metrics.Report `json:"report"`
}

// payload is the comparable serialisation of the entry's simulation
// outcome — result plus per-job report, excluding the point spelling —
// used to detect and deterministically resolve conflicting entries for
// one canonical point.
func (ent cacheFileEntry) payload() ([]byte, error) {
	return json.Marshal(struct {
		Result *Result        `json:"result"`
		Report metrics.Report `json:"report"`
	}{ent.Result, ent.Report})
}

// wire returns the point with every encoding JSON can carry: the
// canonical +Inf MaxSlowdown maps back to the 0 wire default (and is
// restored by canonical() on load).
func (p Point) wire() Point {
	if math.IsInf(p.Options.MaxSlowdown, 1) {
		p.Options.MaxSlowdown = 0
	}
	return p
}

// SaveCache spills the engine's memoised campaign results to path as
// JSON keyed by canonical point, creating parent directories, so
// repeated full-scale runs survive process restarts. Concurrent
// writers are safe: an existing spill at path is merged in rather than
// clobbered (so shards of a job array sharing one -cache-dir each
// contribute their points), a sibling lock file serialises the
// read-merge-write cycle across processes, and the file is replaced
// atomically (temp file + rename) so readers never observe a partial
// spill. Conflicting payloads for one canonical point — which only
// happen if determinism broke — resolve to a deterministic winner and
// are reported in the returned stats (Files counts existing spills
// folded in, Entries the total written), mirroring MergeCache, so
// callers can surface the discrepancy instead of trusting a silently
// chosen result.
func (e *Engine) SaveCache(path string) (CacheMergeStats, error) {
	var stats CacheMergeStats
	keys, vals := e.runner.CacheSnapshot()
	merged := make(map[Point]cacheFileEntry, len(keys))
	for i, k := range keys {
		if vals[i] == nil {
			continue
		}
		if _, err := mergeEntry(merged, k, cacheFileEntry{Result: vals[i], Report: vals[i].report}); err != nil {
			return stats, fmt.Errorf("sdpolicy: encoding result cache: %w", err)
		}
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return stats, err
		}
	}
	unlock, err := lockCacheFile(path)
	if err != nil {
		return stats, err
	}
	defer unlock()
	// Merge-on-save: fold in whatever another process already spilled.
	// Only a version-mismatched file — a documented format upgrade — is
	// replaced; a file that fails to read or decode for any other
	// reason aborts the save, because clobbering it would silently drop
	// another shard's entries, the exact loss this merge exists to
	// prevent.
	switch data, rerr := os.ReadFile(path); {
	case rerr == nil:
		existing, derr := decodeCacheFile(path, data)
		switch {
		case derr == nil:
			stats.Files++
			for _, kv := range existing {
				conflict, err := mergeEntry(merged, kv.key, kv.ent)
				if err != nil {
					return stats, fmt.Errorf("sdpolicy: merging existing cache %s: %w", path, err)
				}
				if conflict {
					stats.Conflicts = append(stats.Conflicts, conflictDescription(kv.key))
				}
			}
		case errors.Is(derr, errCacheVersion):
			// Stale format from an older binary: replace it.
		default:
			return stats, fmt.Errorf("sdpolicy: existing cache %s is unreadable; remove it to allow the spill: %w", path, derr)
		}
	case errors.Is(rerr, fs.ErrNotExist):
	default:
		return stats, fmt.Errorf("sdpolicy: reading existing cache %s: %w", path, rerr)
	}
	entries, err := sortedEntries(merged)
	if err != nil {
		return stats, fmt.Errorf("sdpolicy: encoding result cache: %w", err)
	}
	data, err := json.Marshal(cacheFile{Version: cacheFileVersion, Entries: entries})
	if err != nil {
		return stats, fmt.Errorf("sdpolicy: encoding result cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return stats, err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return stats, werr
		}
		return stats, cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return stats, err
	}
	stats.Entries = len(entries)
	return stats, nil
}

// LoadCache primes the engine's result cache from a file written by
// SaveCache: every persisted point is re-canonicalised and inserted, so
// a subsequent campaign over the same points is pure cache hits. The
// file's entries must be valid — a version mismatch, malformed point or
// missing result aborts the load (tagged ErrBadInput) without priming
// anything, rather than silently serving partial state. Loading into an
// engine whose cache is disabled is a no-op.
func (e *Engine) LoadCache(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	kvs, err := decodeCacheFile(path, data)
	if err != nil {
		return err
	}
	keys, vals := entryResults(kvs)
	e.runner.CachePrime(keys, vals)
	return nil
}

// ReportJSON encodes the result's per-job report — the payload behind
// Daily and the heatmap analyses, which the Result's public JSON
// deliberately omits. It backs the negotiated report frame of the
// campaign wire form: a worker attaches the encoding to its stream so
// a coordinator (or sdexp -server -cache-dir) can reconstruct fully
// cacheable results from proxied simulations.
func (r *Result) ReportJSON() ([]byte, error) {
	return json.Marshal(r.report)
}

// SetReportJSON is ReportJSON's inverse: it restores the per-job
// report onto a Result decoded from the wire, making it equivalent to
// a freshly simulated one — and therefore safe to Prime into a cache
// that SaveCache will later spill.
func (r *Result) SetReportJSON(data []byte) error {
	return json.Unmarshal(data, &r.report)
}

// Prime inserts an externally computed result for p into the engine's
// result cache without simulating — the coordinator's path for warming
// a local cache from results proxied over the campaign wire form. The
// point is validated and canonicalised exactly as Run would, so a
// later campaign over the same point (in any spelling) is a cache hit.
// Priming an engine whose cache is disabled is a no-op. Results meant
// to survive a SaveCache spill should carry their per-job report
// (SetReportJSON) first; a report-less result still serves campaign
// hits but spills an empty report.
func (e *Engine) Prime(p Point, res *Result) error {
	if res == nil {
		return fmt.Errorf("sdpolicy: priming a nil result: %w", ErrBadInput)
	}
	if err := p.validate(); err != nil {
		return err
	}
	e.runner.CachePrime([]Point{p.canonical()}, []*Result{res})
	return nil
}

// PrimeProxied caches a result that arrived over the campaign wire
// form — a result line plus its negotiated report frame — cloning res
// before attaching the report, because the streamed pointer is shared
// with whatever relay or printer path delivered it to the caller. This
// is the one place the clone-before-attach invariant lives; the
// coordinator's fan-out and sdexp -server both warm through it. Like
// the frames themselves it is best-effort: an undecodable report
// simply skips priming, only an invalid point is an error.
func (e *Engine) PrimeProxied(p Point, res *Result, report []byte) error {
	if res == nil {
		return fmt.Errorf("sdpolicy: priming a nil result: %w", ErrBadInput)
	}
	clone := *res
	if clone.SetReportJSON(report) != nil {
		return nil
	}
	return e.Prime(p, &clone)
}

// CacheMergeStats reports what Engine.MergeCache combined.
type CacheMergeStats struct {
	// Files is how many spill files were read; Entries how many
	// distinct canonical points the merged cache holds.
	Files   int
	Entries int
	// Conflicts describes every canonical point whose inputs carried
	// differing payloads — evidence that determinism broke somewhere —
	// one human-readable line per collision. The merge itself stays
	// deterministic: the lexicographically smaller payload encoding
	// wins, independent of the order the inputs were given.
	Conflicts []string
}

// MergeCache primes the engine's result cache from several spill files
// at once — the reduce step of a map-reduce campaign, combining the
// per-shard -cache-dir spills of a job array (or of coordinator
// workers) into one warm cache. Each path may be a spill file or a
// cache directory holding CacheFileName. Overlapping entries with
// identical payloads coalesce; conflicting payloads resolve to a
// deterministic, input-order-independent winner and are reported in
// the returned stats so callers can surface the discrepancy. Any
// unreadable or invalid input — or a merged entry set larger than the
// engine's cache capacity, which priming would silently evict from —
// aborts the merge without priming anything. Follow with SaveCache to
// spill the merged cache.
func (e *Engine) MergeCache(paths ...string) (CacheMergeStats, error) {
	var stats CacheMergeStats
	if len(paths) == 0 {
		return stats, fmt.Errorf("sdpolicy: no cache files to merge: %w", ErrBadInput)
	}
	merged := make(map[Point]cacheFileEntry)
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			p = filepath.Join(p, CacheFileName)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return stats, err
		}
		kvs, err := decodeCacheFile(p, data)
		if err != nil {
			return stats, err
		}
		stats.Files++
		for _, kv := range kvs {
			conflict, err := mergeEntry(merged, kv.key, kv.ent)
			if err != nil {
				return stats, fmt.Errorf("sdpolicy: merging %s: %w", p, err)
			}
			if conflict {
				stats.Conflicts = append(stats.Conflicts, conflictDescription(kv.key))
			}
		}
	}
	entries, err := sortedEntries(merged)
	if err != nil {
		return stats, fmt.Errorf("sdpolicy: merging caches: %w", err)
	}
	// Priming past the LRU capacity would silently evict the overflow:
	// the merge would report success while a later replay re-simulates
	// the evicted points. Refuse instead, so the caller sizes the cache
	// to the campaign (sdexp -cache). The check counts the union with
	// whatever is already cached — entries loaded before the merge must
	// not be evicted either — without penalising overlap.
	cachedKeys, _ := e.runner.CacheSnapshot()
	union := len(entries)
	for _, k := range cachedKeys {
		if _, ok := merged[k]; !ok {
			union++
		}
	}
	if capacity := e.runner.CacheCap(); union > capacity {
		return stats, fmt.Errorf("sdpolicy: cache would hold %d entries (%d merged + %d already cached, overlap deduplicated) but fits %d; raise the cache size: %w",
			union, len(entries), len(cachedKeys), capacity, ErrBadInput)
	}
	kvs := make([]cacheKV, len(entries))
	for i, ent := range entries {
		kvs[i] = cacheKV{key: ent.Point.canonical(), ent: ent}
	}
	keys, vals := entryResults(kvs)
	e.runner.CachePrime(keys, vals)
	stats.Entries = len(entries)
	return stats, nil
}

// conflictDescription is the one logged-discrepancy line for a
// canonical point whose merge inputs carried differing payloads.
func conflictDescription(key Point) string {
	w, _ := json.Marshal(key.wire())
	return fmt.Sprintf("%s: conflicting cached payloads across merge inputs; kept the deterministic winner", w)
}

// cacheKV pairs a decoded spill entry with its canonical cache key.
type cacheKV struct {
	key Point
	ent cacheFileEntry
}

// decodeCacheFile parses and validates one spill file, returning its
// entries keyed by canonical point. Errors are tagged ErrBadInput.
func decodeCacheFile(path string, data []byte) ([]cacheKV, error) {
	var file cacheFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("sdpolicy: %s: %w: %w", path, err, ErrBadInput)
	}
	if file.Version != cacheFileVersion {
		return nil, fmt.Errorf("sdpolicy: %s: cache version %d, want %d: %w: %w",
			path, file.Version, cacheFileVersion, errCacheVersion, ErrBadInput)
	}
	kvs := make([]cacheKV, 0, len(file.Entries))
	for i, ent := range file.Entries {
		if ent.Result == nil {
			return nil, fmt.Errorf("sdpolicy: %s: entry %d has no result: %w", path, i, ErrBadInput)
		}
		if err := ent.Point.validate(); err != nil {
			return nil, fmt.Errorf("sdpolicy: %s: entry %d: %w", path, i, err)
		}
		kvs = append(kvs, cacheKV{key: ent.Point.canonical(), ent: ent})
	}
	return kvs, nil
}

// entryResults materialises decoded entries as cache keys and restored
// Results (per-job report reattached).
func entryResults(kvs []cacheKV) ([]Point, []*Result) {
	keys := make([]Point, len(kvs))
	vals := make([]*Result, len(kvs))
	for i, kv := range kvs {
		res := *kv.ent.Result
		res.report = kv.ent.Report
		keys[i] = kv.key
		vals[i] = &res
	}
	return keys, vals
}

// mergeEntry folds ent (for canonical point key) into dst. Identical
// payloads coalesce silently; differing payloads keep whichever
// payload encodes lexicographically smaller, so the outcome is
// deterministic and independent of merge order. The stored point is
// normalised to the canonical wire spelling. Returns whether the
// payloads genuinely differed.
func mergeEntry(dst map[Point]cacheFileEntry, key Point, ent cacheFileEntry) (bool, error) {
	ent.Point = key.wire()
	old, ok := dst[key]
	if !ok {
		dst[key] = ent
		return false, nil
	}
	oldPayload, err := old.payload()
	if err != nil {
		return false, err
	}
	newPayload, err := ent.payload()
	if err != nil {
		return false, err
	}
	if bytes.Equal(oldPayload, newPayload) {
		return false, nil
	}
	if bytes.Compare(newPayload, oldPayload) < 0 {
		dst[key] = ent
	}
	return true, nil
}

// sortedEntries orders merged entries by their point's wire encoding,
// making spill bytes a pure function of the cache contents.
func sortedEntries(m map[Point]cacheFileEntry) ([]cacheFileEntry, error) {
	type sortable struct {
		wire string
		ent  cacheFileEntry
	}
	all := make([]sortable, 0, len(m))
	for _, ent := range m {
		w, err := json.Marshal(ent.Point)
		if err != nil {
			return nil, err
		}
		all = append(all, sortable{wire: string(w), ent: ent})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].wire < all[j].wire })
	entries := make([]cacheFileEntry, len(all))
	for i, s := range all {
		entries[i] = s.ent
	}
	return entries, nil
}

// lockCacheFile serialises cross-process spill writers on a sibling
// lock file, so two shards saving into one cache directory cannot
// interleave their read-merge-write cycles and drop each other's
// entries. The lock is held across the whole read-merge-marshal-rename
// cycle, and its mtime is refreshed while held, so only a lock whose
// owner actually died goes staleLockAge without a touch and gets
// broken — a live writer, however slow, keeps its lock fresh. Each
// lock records an owner token, and release removes the file only while
// that token is still inside it, so a writer whose lock was somehow
// stolen cannot delete the thief's fresh lock and re-admit a third
// writer. The acquisition timeout exceeds staleLockAge so a waiter
// behind a crashed writer always outlives the staleness threshold and
// breaks through instead of timing out first.
func lockCacheFile(path string) (release func(), err error) {
	const (
		retryEvery   = 20 * time.Millisecond
		staleLockAge = 30 * time.Second
		lockTimeout  = 2 * staleLockAge
	)
	lock := path + ".lock"
	token := fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano())
	deadline := time.Now().Add(lockTimeout)
	for {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			_, werr := f.WriteString(token)
			cerr := f.Close()
			if werr != nil || cerr != nil {
				os.Remove(lock)
				if werr == nil {
					werr = cerr
				}
				return nil, fmt.Errorf("sdpolicy: writing cache lock %s: %w", lock, werr)
			}
			stop := make(chan struct{})
			go func() {
				ticker := time.NewTicker(staleLockAge / 3)
				defer ticker.Stop()
				for {
					select {
					case <-ticker.C:
						now := time.Now()
						os.Chtimes(lock, now, now)
					case <-stop:
						return
					}
				}
			}()
			return func() {
				close(stop)
				if data, rerr := os.ReadFile(lock); rerr == nil && string(data) == token {
					os.Remove(lock)
				}
			}, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("sdpolicy: locking cache %s: %w", path, err)
		}
		if fi, serr := os.Stat(lock); serr == nil && time.Since(fi.ModTime()) > staleLockAge {
			// Break the abandoned lock by renaming it to a name we own:
			// rename is atomic, so exactly one contender wins the steal
			// and the losers retry against whatever lock exists next —
			// a plain Remove here could delete a fresh lock created by
			// a faster contender between the Stat and the Remove.
			stolen := fmt.Sprintf("%s.stale-%d", lock, os.Getpid())
			if os.Rename(lock, stolen) == nil {
				os.Remove(stolen)
			}
			continue
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("sdpolicy: cache lock %s still held after %v; remove it if its owner crashed", lock, lockTimeout)
		}
		time.Sleep(retryEvery)
	}
}
