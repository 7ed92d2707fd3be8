// Package lru provides a small concurrency-safe least-recently-used
// cache, generic over key and value. It backs the campaign runner's
// result memoisation: simulation results are large but immutable, so a
// bounded LRU keeps the hot working set (e.g. the per-workload static
// baselines shared by every sweep variant) without unbounded growth.
package lru

import (
	"container/list"
	"sync"

	"sdpolicy/internal/telemetry"
)

// Cache telemetry, aggregated across every live cache in the process.
// A nil cache counts nothing: a disabled cache has no hit rate worth
// graphing, and the no-op fast path stays allocation- and atomic-free.
var (
	mHits = telemetry.NewCounter("lru_hits_total",
		"LRU lookups that found the key.")
	mMisses = telemetry.NewCounter("lru_misses_total",
		"LRU lookups that missed.")
	mEvictions = telemetry.NewCounter("lru_evictions_total",
		"Entries evicted because a cache exceeded its capacity.")
)

type entry[K comparable, V any] struct {
	key K
	val V
}

// Cache is a fixed-capacity LRU map. A nil *Cache is a valid, always
// empty cache whose Add is a no-op — callers can disable caching by
// passing nil instead of guarding every call site.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element
}

// New returns a cache holding at most capacity entries. It panics on a
// non-positive capacity; use a nil *Cache to disable caching.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: non-positive capacity")
	}
	return &Cache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		mMisses.Inc()
		var zero V
		return zero, false
	}
	mHits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add inserts or refreshes the entry, evicting the least recently used
// entry if the cache is over capacity.
func (c *Cache[K, V]) Add(key K, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		mEvictions.Inc()
	}
}

// Cap returns the cache capacity; a nil cache has capacity 0.
func (c *Cache[K, V]) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
