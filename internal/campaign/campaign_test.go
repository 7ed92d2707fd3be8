package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// square is a deterministic task function counting its executions.
func square(execs *atomic.Int64) Func[int, int] {
	return func(ctx context.Context, k int) (int, error) {
		execs.Add(1)
		return k * k, nil
	}
}

func TestRunOrderedAndParallelMatchesSequential(t *testing.T) {
	keys := make([]int, 100)
	for i := range keys {
		keys[i] = i
	}
	var seqExecs, parExecs atomic.Int64
	seq := New(square(&seqExecs), Config{Workers: 1, CacheSize: 256})
	par := New(square(&parExecs), Config{Workers: 8, CacheSize: 256})
	want, err := seq.Run(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Run(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if want[i] != got[i] || want[i] != i*i {
			t.Fatalf("results[%d]: seq %d, par %d, want %d", i, want[i], got[i], i*i)
		}
	}
}

func TestDuplicateKeysExecuteOnce(t *testing.T) {
	var execs atomic.Int64
	r := New(square(&execs), Config{Workers: 8, CacheSize: 16})
	keys := []int{7, 3, 7, 7, 3, 5}
	res, err := r.Run(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if res[i] != k*k {
			t.Fatalf("res[%d] = %d, want %d", i, res[i], k*k)
		}
	}
	if n := execs.Load(); n != 3 {
		t.Fatalf("executed %d tasks for 3 unique keys", n)
	}
}

func TestCacheHitsAcrossRuns(t *testing.T) {
	var execs atomic.Int64
	r := New(square(&execs), Config{Workers: 4, CacheSize: 16})
	if _, err := r.Run(context.Background(), []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), []int{3, 2, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 9 || res[3] != 16 {
		t.Fatalf("bad results: %v", res)
	}
	if n := execs.Load(); n != 4 {
		t.Fatalf("executed %d tasks, want 4 (three served from cache)", n)
	}
	hits, misses := r.Stats()
	if hits != 3 || misses != 4 {
		t.Fatalf("stats hits=%d misses=%d, want 3/4", hits, misses)
	}
}

func TestNoCacheStillDedupesWithinRun(t *testing.T) {
	var execs atomic.Int64
	r := New(square(&execs), Config{Workers: 4}) // CacheSize 0: no memoisation
	if _, err := r.Run(context.Background(), []int{5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), []int{5}); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("executed %d tasks, want 2 (dedupe within run, no cache across)", n)
	}
}

func TestFirstErrorCancelsRemainingWork(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	fn := func(ctx context.Context, k int) (int, error) {
		if k == 0 {
			return 0, boom
		}
		// Tasks sharded after the failure should observe cancellation.
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Millisecond):
			after.Add(1)
		}
		return k, nil
	}
	keys := make([]int, 64)
	for i := range keys {
		keys[i] = i
	}
	r := New(fn, Config{Workers: 4, CacheSize: 16})
	if _, err := r.Run(context.Background(), keys); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := after.Load(); n >= 60 {
		t.Fatalf("%d tasks ran to completion after the failure", n)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	fn := func(ctx context.Context, k int) (int, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return 0, ctx.Err()
	}
	r := New(fn, Config{Workers: 2, CacheSize: 4})
	errc := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, []int{1, 2, 3, 4})
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

func TestConcurrentRunsSingleflightSameKey(t *testing.T) {
	var execs atomic.Int64
	block := make(chan struct{})
	fn := func(ctx context.Context, k int) (int, error) {
		execs.Add(1)
		<-block
		return k * 10, nil
	}
	r := New(fn, Config{Workers: 4, CacheSize: 16})
	var wg sync.WaitGroup
	results := make([][]int, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := r.Run(context.Background(), []int{42})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
		}(g)
	}
	// Let all four Runs reach the in-flight table, then release.
	time.Sleep(20 * time.Millisecond)
	close(block)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("key executed %d times across concurrent runs", n)
	}
	for g, res := range results {
		if len(res) != 1 || res[0] != 420 {
			t.Fatalf("run %d got %v", g, res)
		}
	}
}

// TestConcurrentRunsShareExecutionSlots proves the Workers bound holds
// across overlapping Run calls: 4 concurrent Runs on a workers=2
// runner never execute more than 2 tasks at once.
func TestConcurrentRunsShareExecutionSlots(t *testing.T) {
	var cur, peak atomic.Int64
	fn := func(ctx context.Context, k int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		cur.Add(-1)
		return k, nil
	}
	r := New(fn, Config{Workers: 2, CacheSize: 64})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Distinct keys per Run so nothing coalesces.
			keys := []int{g * 10, g*10 + 1, g*10 + 2}
			if _, err := r.Run(context.Background(), keys); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d tasks executed concurrently on a 2-worker runner", p)
	}
}

// TestJoinerRetriesAfterOwnerCancelled: when the Run owning an
// in-flight execution is cancelled, a joiner with a live context must
// re-execute the task instead of inheriting context.Canceled.
func TestJoinerRetriesAfterOwnerCancelled(t *testing.T) {
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerStarted := make(chan struct{})
	var calls atomic.Int64
	fn := func(ctx context.Context, k int) (int, error) {
		if calls.Add(1) == 1 {
			close(ownerStarted)
			<-ctx.Done() // the owner's cancellable execution
			return 0, ctx.Err()
		}
		return k * 2, nil
	}
	r := New(fn, Config{Workers: 2, CacheSize: 4})
	ownerErr := make(chan error, 1)
	go func() {
		_, err := r.Run(ownerCtx, []int{21})
		ownerErr <- err
	}()
	<-ownerStarted
	joinerRes := make(chan int, 1)
	joinerErr := make(chan error, 1)
	go func() {
		res, err := r.Run(context.Background(), []int{21})
		if err != nil {
			joinerErr <- err
			return
		}
		joinerRes <- res[0]
	}()
	// Give the joiner time to reach the in-flight table, then cancel
	// the owner out from under it.
	time.Sleep(20 * time.Millisecond)
	cancelOwner()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	select {
	case err := <-joinerErr:
		t.Fatalf("joiner inherited the owner's failure: %v", err)
	case v := <-joinerRes:
		if v != 42 {
			t.Fatalf("joiner result %d, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner never completed")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fn called %d times, want 2 (owner + retry)", n)
	}
}

// TestWorkersRunConcurrently proves the pool overlaps task execution
// regardless of core count: 8 tasks sleeping 20ms each must finish far
// sooner than the 160ms a sequential runner would need.
func TestWorkersRunConcurrently(t *testing.T) {
	fn := func(ctx context.Context, k int) (int, error) {
		time.Sleep(20 * time.Millisecond)
		return k, nil
	}
	r := New(fn, Config{Workers: 8, CacheSize: 16})
	keys := []int{0, 1, 2, 3, 4, 5, 6, 7}
	start := time.Now()
	if _, err := r.Run(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Fatalf("8 x 20ms tasks on 8 workers took %v — pool not concurrent", elapsed)
	}
}

func TestProgressCallback(t *testing.T) {
	var execs atomic.Int64
	r := New(square(&execs), Config{Workers: 4, CacheSize: 16})
	var mu sync.Mutex
	var dones []int
	lastTotal := 0
	r.OnProgress(func(done, total int) {
		mu.Lock()
		dones = append(dones, done)
		lastTotal = total
		mu.Unlock()
	})
	keys := []int{1, 2, 3, 2, 1} // 3 unique, 5 inputs
	if _, err := r.Run(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if lastTotal != 5 {
		t.Fatalf("total = %d, want 5", lastTotal)
	}
	max := 0
	for _, d := range dones {
		if d > max {
			max = d
		}
	}
	if max != 5 {
		t.Fatalf("final done = %d, want 5 (calls: %v)", max, dones)
	}
}

func TestEmptyRun(t *testing.T) {
	r := New(square(new(atomic.Int64)), Config{Workers: 4})
	res, err := r.Run(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v, %v", res, err)
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at task %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("base seed ignored")
	}
}

func ExampleRunner_Run() {
	r := New(func(ctx context.Context, k string) (string, error) {
		return "simulated " + k, nil
	}, Config{Workers: 4, CacheSize: 8})
	res, _ := r.Run(context.Background(), []string{"wl1/static", "wl1/sd10"})
	fmt.Println(res[0])
	fmt.Println(res[1])
	// Output:
	// simulated wl1/static
	// simulated wl1/sd10
}

// TestCachePrime: a runner primed with results computed elsewhere
// serves those keys without executing the task function.
func TestCachePrime(t *testing.T) {
	var execs atomic.Int64
	fn := func(ctx context.Context, k string) (string, error) {
		execs.Add(1)
		return "simulated " + k, nil
	}
	keys, vals := []string{"a", "b"}, []string{"simulated a", "simulated b"}
	r := New(fn, Config{Workers: 2, CacheSize: 8})
	r.CachePrime(keys, vals)
	res, err := r.Run(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "simulated a" || res[1] != "simulated b" {
		t.Fatalf("primed results %v", res)
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("%d executions after priming, want 0", n)
	}
	if hits, misses := r.Stats(); hits != 2 || misses != 0 {
		t.Fatalf("hits %d misses %d, want 2 and 0", hits, misses)
	}

	// Caching disabled: priming is a no-op, so the keys execute.
	off := New(fn, Config{Workers: 2, CacheSize: 0})
	off.CachePrime(keys, vals)
	if _, err := off.Run(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("cache-off runner executed %d keys, want 2", n)
	}
	// Mismatched lengths must not panic.
	r.CachePrime([]string{"x", "y"}, []string{"only one"})
}
