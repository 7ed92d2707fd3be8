// Package campaign runs experiment campaigns — batches of independent,
// deterministic tasks such as (workload, variant, seed, scale)
// simulation points — across a pool of workers.
//
// The runner is generic over a comparable task key K and a result R so
// the root sdpolicy package can drive it without an import cycle. Three
// properties matter to callers:
//
//   - Determinism: Run returns results positionally aligned with its
//     input keys, so a parallel campaign is byte-identical to a
//     sequential one as long as the task function itself is
//     deterministic. Unique keys are sharded statically across workers
//     (worker w takes unique tasks w, w+W, w+2W, ...).
//
//   - Memoisation: results are cached in a bounded LRU keyed by the
//     task key, and duplicate keys — within one Run, across Runs, or
//     concurrently in-flight from different Runs — execute the task
//     function exactly once (singleflight).
//
//   - Cancellation: Run honours context cancellation between tasks and
//     propagates the first task error, cancelling the remaining work.
//     The task function receives the batch context, so a task that
//     checkpoints it (sched.RunContext) also aborts mid-execution.
//
//   - Streaming: RunStream additionally delivers each position's result
//     on a channel the moment its key resolves, in completion order,
//     while the returned slice keeps the deterministic input alignment.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdpolicy/internal/lru"
	"sdpolicy/internal/telemetry"
)

// Campaign-engine telemetry, aggregated across every Runner in the
// process. The per-runner hits/misses atomics stay authoritative for
// Stats(); these mirror them globally (hits = cache hits + in-flight
// joins, matching Stats) so /metrics and sdexp's machine-readable
// stats line read the same tallies.
var (
	mStarted = telemetry.NewCounter("campaign_points_started_total",
		"Campaign task executions started (cache misses handed to the task function).")
	mCompleted = telemetry.NewCounter("campaign_points_completed_total",
		"Campaign task executions that returned a result.")
	mFailed = telemetry.NewCounter("campaign_points_failed_total",
		"Campaign task executions that returned an error (including cancellations).")
	mPointSeconds = telemetry.NewHistogram("campaign_point_seconds",
		"Wall-clock latency of campaign task executions.", telemetry.DefBuckets)
	mCacheHits = telemetry.NewCounter("campaign_cache_hits_total",
		"Task resolutions served without executing: memoised results plus in-flight joins.")
	mCacheMisses = telemetry.NewCounter("campaign_cache_misses_total",
		"Task resolutions that executed the task function.")
	mDedup = telemetry.NewCounter("campaign_singleflight_dedup_total",
		"Task resolutions that joined an already in-flight execution of the same key.")
)

// Func computes the result for one task key. It must be deterministic
// in key for the runner's ordering and memoisation guarantees to mean
// anything, and should return promptly once ctx is cancelled.
type Func[K comparable, R any] func(ctx context.Context, key K) (R, error)

// Config sizes a Runner.
type Config struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the result LRU; <= 0 disables cross-Run
	// memoisation (duplicates within one Run still execute once).
	CacheSize int
}

// call is one in-flight task execution that duplicate requests join.
type call[R any] struct {
	done chan struct{}
	val  R
	err  error
}

// Runner executes task batches over a shared worker pool, cache, and
// in-flight table. It is safe for concurrent use; overlapping Run calls
// share memoised and in-flight results, and a semaphore shared across
// Runs caps concurrent task executions at Workers regardless of how
// many Runs are active at once.
type Runner[K comparable, R any] struct {
	fn      Func[K, R]
	workers int
	// sem holds one slot per worker: acquired around each fn
	// execution so concurrent Runs cannot multiply the pool size.
	sem   chan struct{}
	cache *lru.Cache[K, R]

	mu       sync.Mutex
	inflight map[K]*call[R]

	progressMu sync.Mutex
	progress   func(done, total int)

	hits   atomic.Uint64
	misses atomic.Uint64
}

// New builds a Runner executing fn.
func New[K comparable, R any](fn Func[K, R], cfg Config) *Runner[K, R] {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	var cache *lru.Cache[K, R]
	if cfg.CacheSize > 0 {
		cache = lru.New[K, R](cfg.CacheSize)
	}
	return &Runner[K, R]{
		fn:       fn,
		workers:  w,
		sem:      make(chan struct{}, w),
		cache:    cache,
		inflight: make(map[K]*call[R]),
	}
}

// Workers returns the pool size.
func (r *Runner[K, R]) Workers() int { return r.workers }

// OnProgress registers a callback invoked after each input key
// resolves, with the number of resolved keys and the batch total. It
// may be called from any worker goroutine, but never concurrently with
// itself.
func (r *Runner[K, R]) OnProgress(fn func(done, total int)) {
	r.progressMu.Lock()
	r.progress = fn
	r.progressMu.Unlock()
}

// Stats returns how many task resolutions were served from the cache
// (or joined an in-flight execution) versus executed.
func (r *Runner[K, R]) Stats() (hits, misses uint64) {
	return r.hits.Load(), r.misses.Load()
}

// CacheCap returns the result cache's capacity in entries (0 when
// caching is disabled), letting callers detect prime sets that would
// overflow it.
func (r *Runner[K, R]) CacheCap() int {
	return r.cache.Cap()
}

// CachePrime inserts precomputed results — typically ones persisted by
// an earlier process — into the cache without executing the task
// function. Entries are added in input order, so the last ones are the
// most recently used. Extra values beyond len(keys) are ignored; with
// caching disabled CachePrime is a no-op.
func (r *Runner[K, R]) CachePrime(keys []K, vals []R) {
	for i, k := range keys {
		if i >= len(vals) {
			return
		}
		r.cache.Add(k, vals[i])
	}
}

// Update is one incremental result delivery from RunStream: the result
// for input position Index, whose key was Key (keys[Index] == Key).
// Duplicate positions of one key are delivered together, in ascending
// index order.
type Update[K comparable, R any] struct {
	Index int
	Key   K
	Value R
}

// Run resolves every key and returns results aligned with keys:
// results[i] is the result for keys[i]. Duplicate keys share one
// execution. On the first task error or on ctx cancellation the
// remaining tasks are abandoned and Run returns the error.
func (r *Runner[K, R]) Run(ctx context.Context, keys []K) ([]R, error) {
	return r.RunStream(ctx, keys, nil)
}

// RunStream is Run with incremental delivery: as each input key
// resolves, an Update for every position holding that key is sent on
// updates (when non-nil) long before the batch completes. Updates
// arrive in completion order — nondeterministic across keys — so
// streaming consumers trade ordering for latency, while the returned
// slice keeps Run's deterministic input alignment and is bytewise
// identical to a sequential run's. RunStream closes updates before
// returning. A consumer that stops draining updates must cancel ctx:
// sends block (applying backpressure to the workers) until either the
// consumer receives or the context ends.
func (r *Runner[K, R]) RunStream(ctx context.Context, keys []K, updates chan<- Update[K, R]) ([]R, error) {
	if updates != nil {
		defer close(updates)
	}
	if len(keys) == 0 {
		return nil, ctx.Err()
	}
	results := make([]R, len(keys))
	unique := make([]K, 0, len(keys))
	where := make(map[K][]int, len(keys))
	for i, k := range keys {
		if _, seen := where[k]; !seen {
			unique = append(unique, k)
		}
		where[k] = append(where[k], i)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := r.workers
	if workers > len(unique) {
		workers = len(unique)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	total := len(keys)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for t := shard; t < len(unique); t += workers {
				if ctx.Err() != nil {
					return
				}
				k := unique[t]
				val, err := r.resolve(ctx, k)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
				for _, i := range where[k] {
					results[i] = val
				}
				done += len(where[k])
				// Notify before releasing mu so the done counter the
				// callback sees never goes backwards.
				r.notify(done, total)
				mu.Unlock()
				// Stream outside mu so one slow consumer stalls only
				// this worker, not the whole pool. The non-blocking
				// attempt first means a completed result is never
				// raced out by a simultaneously-cancelled ctx as long
				// as the channel has buffer room — consumers that
				// drain after cancelling (serve shutdown) rely on it.
				if updates != nil {
					for _, i := range where[k] {
						u := Update[K, R]{Index: i, Key: k, Value: val}
						select {
						case updates <- u:
						default:
							select {
							case updates <- u:
							case <-ctx.Done():
								return
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Our own cancel only fires after this check (deferred) or on the
	// error path above, so a non-nil ctx.Err() here is the caller's.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Backstop: a key that is not equal to itself (NaN in a float
	// field) stores into the where map but can never be looked up, so
	// its result slots would silently stay zero. Fail loudly instead.
	if done != total {
		return nil, fmt.Errorf("campaign: only %d of %d keys resolved — non-self-equal key (NaN float field)?", done, total)
	}
	return results, nil
}

// resolve returns the result for one key: from the cache, by joining an
// in-flight execution, or by executing fn and publishing the result.
func (r *Runner[K, R]) resolve(ctx context.Context, k K) (R, error) {
	for {
		if v, ok := r.cache.Get(k); ok {
			r.hits.Add(1)
			mCacheHits.Inc()
			return v, nil
		}
		r.mu.Lock()
		// Check the cache again under mu: an execution publishes its
		// result before leaving inflight, so a key that finished between
		// the lookup above and this lock is cached now, and running it
		// again would simulate the point twice.
		if v, ok := r.cache.Get(k); ok {
			r.mu.Unlock()
			r.hits.Add(1)
			mCacheHits.Inc()
			return v, nil
		}
		if c, ok := r.inflight[k]; ok {
			r.mu.Unlock()
			select {
			case <-c.done:
				if isCancellation(c.err) && ctx.Err() == nil {
					// The owning Run was cancelled, not ours: the key
					// is unresolved, so retry rather than inheriting
					// someone else's cancellation.
					continue
				}
				r.hits.Add(1)
				mCacheHits.Inc()
				mDedup.Inc()
				return c.val, c.err
			case <-ctx.Done():
				var zero R
				return zero, ctx.Err()
			}
		}
		c := &call[R]{done: make(chan struct{})}
		r.inflight[k] = c
		r.mu.Unlock()

		// Acquire an execution slot; the semaphore is shared across
		// concurrent Runs so fn concurrency never exceeds Workers.
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			c.err = ctx.Err()
		}
		if c.err == nil {
			r.misses.Add(1)
			mCacheMisses.Inc()
			mStarted.Inc()
			begin := time.Now()
			c.val, c.err = r.fn(ctx, k)
			mPointSeconds.Observe(time.Since(begin).Seconds())
			<-r.sem
			if c.err == nil {
				mCompleted.Inc()
				r.cache.Add(k, c.val)
			} else {
				mFailed.Inc()
			}
		}
		r.mu.Lock()
		delete(r.inflight, k)
		r.mu.Unlock()
		close(c.done)
		return c.val, c.err
	}
}

// isCancellation reports whether err came from a cancelled or expired
// context rather than from the task itself failing.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (r *Runner[K, R]) notify(done, total int) {
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	if r.progress != nil {
		r.progress(done, total)
	}
}

// DeriveSeed deterministically expands one base seed into per-task
// seeds (splitmix64 finaliser over the task index), so a campaign
// declared with a single seed can still give every replicate an
// independent, reproducible RNG stream.
func DeriveSeed(base uint64, task int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(task+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
