package sdpolicy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"sdpolicy/internal/journal"
	"sdpolicy/internal/metrics"
)

// cacheLogVersion guards the cache log format: bump it when the point
// encoding or the persisted result shape changes incompatibly, so stale
// logs are skipped. Version 1 was the retired campaign-cache.json.
const cacheLogVersion = 2

// kindEntry is the kind of every cache log record after the create
// record, which holds {"version": cacheLogVersion}.
const kindEntry = "entry"

// cacheFileEntry persists one memoised simulation: the canonical point
// in wire form, and the result with the per-job report its public JSON
// omits, so a restored Result equals a freshly simulated one.
type cacheFileEntry struct {
	Point  Point          `json:"point"`
	Result *Result        `json:"result"`
	Report metrics.Report `json:"report"`
}

// payload encodes the entry's outcome without its point: what two
// entries for one canonical point are compared by.
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

// CacheMergeStats reports what Engine.PersistCache loaded from a cache
// directory.
type CacheMergeStats struct {
	// Files counts the logs loaded and Entries the distinct canonical
	// points they hold; Overflow counts the entries past the cache's
	// capacity, which were not loaded.
	Files, Entries, Overflow int
	// Skipped has one line per log that failed to load; a skipped log
	// is ignored whole.
	Skipped []string
	// Conflicts has one line per canonical point whose logs disagree —
	// evidence that determinism broke. The lexicographically smaller
	// payload encoding wins, whichever log is read first.
	Conflicts []string
}

// PersistCache makes dir the engine's durable result store. It loads
// every cache log in dir, primes the result cache with their entries in
// first-occurrence order, and from then on appends each result the
// engine simulates or is primed with the moment it exists, so a run
// killed with SIGKILL keeps every point it finished. A canonical point
// the directory already holds is never appended again.
//
// Each process appends to a journal of its own (cache-<pid>-<ns>,
// created on the first append), so processes may share dir, and
// merging directories is copying their logs into one. Logs load in
// name order; a torn final record costs only that record, and a log
// that fails to load is skipped and named in stats.
//
// close ends the appends and reports how many records were appended.
// An append error never fails a point: it stops further appends and
// close returns it. Call PersistCache once, before running campaigns.
func (e *Engine) PersistCache(dir string) (stats CacheMergeStats, close func() (appended int, err error), err error) {
	j, err := journal.Open(dir)
	if err != nil {
		return stats, nil, err
	}
	ids, err := j.List()
	if err != nil {
		return stats, nil, err
	}
	log := &cacheLog{dir: j, held: make(map[Point]struct{})}
	merged := make(map[Point]cacheFileEntry)
	var keys []Point
	for _, id := range ids {
		ents, err := readCacheLog(j, id)
		if err != nil {
			stats.Skipped = append(stats.Skipped, fmt.Sprintf("skipped cache log %s: %v", id, err))
			continue
		}
		stats.Files++
		for _, ent := range ents {
			if _, seen := log.held[ent.Point]; !seen {
				log.held[ent.Point] = struct{}{}
				keys = append(keys, ent.Point)
			}
			conflict, err := mergeEntry(merged, ent)
			if err != nil {
				return stats, nil, fmt.Errorf("sdpolicy: %s: %w", id, err)
			}
			if conflict {
				stats.Conflicts = append(stats.Conflicts, conflictDescription(ent.Point))
			}
		}
	}
	if !e.store.CompareAndSwap(nil, log) {
		return stats, nil, errors.New("sdpolicy: the engine already persists its cache")
	}
	stats.Entries = len(keys)
	if capacity := e.runner.CacheCap(); len(keys) > capacity {
		keys, stats.Overflow = keys[:capacity], len(keys)-capacity
	}
	vals := make([]*Result, len(keys))
	for i, key := range keys {
		res := *merged[key].Result
		res.report = merged[key].Report
		vals[i] = &res
	}
	e.runner.CachePrime(keys, vals)
	return stats, log.close, nil
}

// readCacheLog parses one cache log, returning its entries with their
// points canonicalised. Any invalid record fails the whole log.
func readCacheLog(j *journal.Journal, id string) ([]cacheFileEntry, error) {
	recs, err := j.Read(id)
	if err != nil {
		return nil, err
	}
	var hdr struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(recs[0].Data, &hdr); err != nil || hdr.Version != cacheLogVersion {
		return nil, fmt.Errorf("version %d, want %d", hdr.Version, cacheLogVersion)
	}
	ents := make([]cacheFileEntry, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		bad := func(err error) error { return fmt.Errorf("record %d: %w", rec.Seq, err) }
		if rec.Kind != kindEntry {
			return nil, bad(fmt.Errorf("kind %q, want %q", rec.Kind, kindEntry))
		}
		var ent cacheFileEntry
		if err := json.Unmarshal(rec.Data, &ent); err != nil {
			return nil, bad(err)
		}
		if ent.Result == nil {
			return nil, bad(errors.New("no result"))
		}
		if err := ent.Point.validate(); err != nil {
			return nil, bad(err)
		}
		ent.Point = ent.Point.canonical()
		ents = append(ents, ent)
	}
	return ents, nil
}

// cacheLog appends an engine's new results to its own log in a cache
// directory. held has every canonical point the directory holds, loaded
// or appended.
type cacheLog struct {
	dir *journal.Journal

	mu       sync.Mutex
	held     map[Point]struct{}
	w        *journal.Writer
	appended int
	err      error
	closed   bool
}

// append logs res for canonical point key unless the directory already
// holds the key, appends were closed, or an earlier append failed.
func (l *cacheLog) append(key Point, res *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, held := l.held[key]; held || l.closed || l.err != nil {
		return
	}
	l.held[key] = struct{}{}
	data, err := json.Marshal(cacheFileEntry{Point: key.wire(), Result: res, Report: res.report})
	if err == nil && l.w == nil {
		l.w, err = createCacheLog(l.dir)
	}
	if err == nil {
		err = l.w.Append(uint64(l.appended)+1, kindEntry, data)
	}
	if err != nil {
		l.err = fmt.Errorf("sdpolicy: appending to the result cache: %w", err)
		return
	}
	l.appended++
}

// close stops further appends and releases the log.
func (l *cacheLog) close() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed && l.w != nil {
		if err := l.w.Close(); err != nil && l.err == nil {
			l.err = err
		}
	}
	l.closed = true
	return l.appended, l.err
}

// createCacheLog starts this process's log in the cache directory,
// retrying on a name clash with another log.
func createCacheLog(j *journal.Journal) (*journal.Writer, error) {
	hdr := json.RawMessage(fmt.Sprintf(`{"version":%d}`, cacheLogVersion))
	for {
		w, err := j.Create(fmt.Sprintf("cache-%d-%d", os.Getpid(), time.Now().UnixNano()), hdr)
		if !errors.Is(err, journal.ErrExists) {
			return w, err
		}
	}
}

// ReportJSON encodes the result's per-job report — the payload behind
// Daily and the heatmap analyses, which the Result's public JSON
// deliberately omits. It backs the "report" key of a report campaign's
// result frames, from which a coordinator (or sdexp -server -cache-dir)
// reconstructs fully cacheable results from proxied simulations.
func (r *Result) ReportJSON() ([]byte, error) {
	return json.Marshal(r.report)
}

// SetReportJSON is ReportJSON's inverse: it restores the per-job
// report onto a Result decoded from the wire, making it equivalent to
// a freshly simulated one — and therefore safe to Prime into a cache
// that PersistCache writes to disk.
func (r *Result) SetReportJSON(data []byte) error {
	return json.Unmarshal(data, &r.report)
}

// Prime inserts an externally computed result for p into the engine's
// result cache without simulating — the path for warming a local cache
// from results proxied over the campaign wire form. The point is
// validated and canonicalised exactly as Run would, so a later campaign
// over the same point (in any spelling) is a cache hit. Priming an
// engine whose cache is disabled is a no-op. With PersistCache on, the
// result is also appended to the cache log, so it should carry its
// per-job report (SetReportJSON) first; a report-less result still
// serves campaign hits but persists an empty report. A result decoded
// from the bytes json.Marshal writes carries them as its encoding and
// is cached as it is; the cache keeps a copy of any other result, so
// the copy can be given one.
func (e *Engine) Prime(p Point, res *Result) error {
	if res == nil {
		return fmt.Errorf("sdpolicy: priming a nil result: %w", ErrBadInput)
	}
	if err := p.validate(); err != nil {
		return err
	}
	if res.encoded == nil {
		// Encode a copy: the caller may still read or share res.
		primed := *res
		primed.encode()
		res = &primed
	}
	key := p.canonical()
	e.runner.CachePrime([]Point{key}, []*Result{res})
	if log := e.store.Load(); log != nil {
		log.append(key, res)
	}
	return nil
}

// PersistsCache reports whether PersistCache made a directory the
// engine's result store, so results primed into it reach disk.
func (e *Engine) PersistsCache() bool { return e.store.Load() != nil }

// conflictDescription is the one logged-discrepancy line for a
// canonical point whose cache logs carried differing payloads.
func conflictDescription(key Point) string {
	w, _ := json.Marshal(key.wire())
	return fmt.Sprintf("%s: conflicting cached payloads across cache logs; kept the deterministic winner", w)
}

// mergeEntry folds ent, whose point is canonical, into dst. Identical
// payloads coalesce silently; differing payloads keep whichever
// payload encodes lexicographically smaller, so the outcome is
// deterministic and independent of merge order. Returns whether the
// payloads genuinely differed.
func mergeEntry(dst map[Point]cacheFileEntry, ent cacheFileEntry) (bool, error) {
	old, ok := dst[ent.Point]
	if !ok {
		dst[ent.Point] = ent
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
		dst[ent.Point] = ent
	}
	return true, nil
}
