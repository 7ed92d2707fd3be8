package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestAddGetEvict(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used and must be the eviction victim.
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction over less recently used a")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestAddRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // refresh value and recency
	c.Add("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %v, %v, want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache[string, int]
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(i%100, g)
				c.Get(i % 100)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}

func TestPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[string, string](0)
}

func ExampleCache() {
	c := New[string, string](8)
	c.Add("wl1/static", "baseline")
	v, ok := c.Get("wl1/static")
	fmt.Println(v, ok)
	// Output: baseline true
}
