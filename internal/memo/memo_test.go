package memo_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringsym/internal/memo"
)

func TestHitMiss(t *testing.T) {
	c := memo.New[int](100)
	calls := 0
	fn := func(context.Context) (int, error) { calls++; return 42, nil }
	v, kind, err := c.Do(context.Background(), "k", fn)
	if err != nil || v != 42 || kind != memo.Miss {
		t.Fatalf("first Do: %d %v %v", v, kind, err)
	}
	v, kind, err = c.Do(context.Background(), "k", fn)
	if err != nil || v != 42 || kind != memo.Hit {
		t.Fatalf("second Do: %d %v %v", v, kind, err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Dedups != 0 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := memo.New[int](100)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 || kind != memo.Miss {
		t.Fatalf("retry: %d %v %v", v, kind, err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times", calls)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("entries = %d", c.Stats().Entries)
	}
}

func TestSingleflightDedup(t *testing.T) {
	c := memo.New[int](100)
	var calls atomic.Int32
	release := make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	kinds := make([]memo.Kind, workers)
	started := make(chan struct{})
	var once sync.Once
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				once.Do(func() { close(started) })
				<-release
				return 9, nil
			})
			if err != nil || v != 9 {
				t.Errorf("worker %d: %d %v", i, v, err)
			}
			kinds[i] = kind
		}(i)
	}
	<-started
	// Give the remaining workers a moment to join the in-flight call, then
	// let the computation finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn called %d times", got)
	}
	misses := 0
	for _, k := range kinds {
		if k == memo.Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want 1", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Dedups != workers-1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCancelLastWaiterCancelsComputation: the computation context must be
// cancelled exactly when every joined caller has given up.
func TestCancelLastWaiterCancelsComputation(t *testing.T) {
	c := memo.New[int](100)
	computeCancelled := make(chan struct{})
	inFn := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	go func() {
		defer wg.Done()
		_, _, errs[0] = c.Do(ctx1, "k", func(cctx context.Context) (int, error) {
			close(inFn)
			<-cctx.Done()
			close(computeCancelled)
			return 0, cctx.Err()
		})
	}()
	<-inFn
	go func() {
		defer wg.Done()
		_, _, errs[1] = c.Do(ctx2, "k", func(context.Context) (int, error) {
			t.Error("second caller must join, not compute")
			return 0, nil
		})
	}()
	// Wait until the second caller has actually joined (dedup counter).
	deadline := time.After(2 * time.Second)
	for c.Stats().Dedups == 0 {
		select {
		case <-deadline:
			t.Fatal("second caller never joined")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	cancel1()
	select {
	case <-computeCancelled:
		t.Fatal("computation cancelled while a waiter remained")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	select {
	case <-computeCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("computation not cancelled after the last waiter left")
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller %d: err = %v", i, err)
		}
	}
	// The failed computation must not be cached.
	if c.Stats().Entries != 0 {
		t.Fatalf("entries = %d", c.Stats().Entries)
	}
}

// TestWaiterSurvivesOtherCancellation: a waiter whose context stays live gets
// the result even when the original caller cancels.
func TestWaiterSurvivesOtherCancellation(t *testing.T) {
	c := memo.New[int](100)
	inFn := make(chan struct{})
	release := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.Do(ctx1, "k", func(cctx context.Context) (int, error) {
			close(inFn)
			select {
			case <-release:
				return 5, nil
			case <-cctx.Done():
				return 0, cctx.Err()
			}
		})
	}()
	<-inFn
	got := make(chan error, 1)
	var val int
	go func() {
		var err error
		var v int
		v, _, err = c.Do(context.Background(), "k", func(context.Context) (int, error) {
			return 0, errors.New("must not recompute")
		})
		val = v
		got <- err
	}()
	for c.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel1() // the leader leaves; the second waiter keeps the call alive
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-got; err != nil || val != 5 {
		t.Fatalf("waiter got %d, %v", val, err)
	}
	wg.Wait()
}

// TestRetryAfterAbandonedCall: once the last waiter abandons a call, a new Do
// for the key must start a fresh computation instead of joining the dying one
// and inheriting its cancellation error.
func TestRetryAfterAbandonedCall(t *testing.T) {
	c := memo.New[int](100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	blocked := make(chan struct{})
	_, _, err := c.Do(ctx, "k", func(cctx context.Context) (int, error) {
		<-cctx.Done()
		close(blocked)
		return 0, cctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call: err = %v", err)
	}
	v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 8, nil })
	if err != nil || v != 8 || kind != memo.Miss {
		t.Fatalf("retry: %d %v %v", v, kind, err)
	}
	<-blocked // the abandoned computation was cancelled, not leaked
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

// TestCancelledLeaderReturnsResult: a leader whose context is cancelled while
// a joined caller still waits keeps computing on its own goroutine, returns
// only after fn has returned, and gets the computed value, not ctx.Err().
func TestCancelledLeaderReturnsResult(t *testing.T) {
	c := memo.New[int](100)
	inFn := make(chan struct{})
	release := make(chan struct{})
	var fnReturned atomic.Bool
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()

	type result struct {
		v      int
		kind   memo.Kind
		err    error
		fnDone bool
	}
	leader := make(chan result, 1)
	go func() {
		v, kind, err := c.Do(ctx1, "k", func(cctx context.Context) (int, error) {
			close(inFn)
			select {
			case <-release:
			case <-cctx.Done():
				return 0, cctx.Err()
			}
			fnReturned.Store(true)
			return 6, nil
		})
		leader <- result{v, kind, err, fnReturned.Load()}
	}()
	<-inFn
	joined := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			return 0, errors.New("must not recompute")
		})
		if err == nil && v != 6 {
			err = fmt.Errorf("joined caller got %d", v)
		}
		joined <- err
	}()
	for c.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}

	cancel1() // the joined caller keeps the computation alive
	select {
	case r := <-leader:
		t.Fatalf("cancelled leader returned before fn did: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if r := <-leader; r.err != nil || r.v != 6 || r.kind != memo.Miss || !r.fnDone {
		t.Fatalf("cancelled leader got %+v, want 6 from a finished miss", r)
	}
	if err := <-joined; err != nil {
		t.Fatalf("joined caller: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPanickingComputation: a panic inside fn becomes an error for every
// joined caller, the leader included — it must not escape the leader (which
// would leave the joined callers hanging) and must not be cached.
func TestPanickingComputation(t *testing.T) {
	c := memo.New[int](100)
	inFn := make(chan struct{})
	release := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(inFn)
			<-release
			panic("boom")
		})
		errs <- err
	}()
	<-inFn
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("second caller must join, not compute")
			return 0, nil
		})
		errs <- err
	}()
	for c.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		err := <-errs
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("caller %d: err = %v, want the contained panic", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("panicked computation was cached: %+v", st)
	}
	// The key is retryable afterwards.
	v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 4, nil })
	if err != nil || v != 4 || kind != memo.Miss {
		t.Fatalf("retry: %d %v %v", v, kind, err)
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 16 = 1 entry per shard: inserting two keys that land in the
	// same shard must evict the older one.
	c := memo.New[int](16)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if _, _, err := c.Do(context.Background(), k, func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 16 {
		t.Fatalf("entries = %d, want <= 16", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions after 100 inserts into capacity 16")
	}
	if st.Entries+int(st.Evictions) != 100 {
		t.Fatalf("entries %d + evictions %d != 100", st.Entries, st.Evictions)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := memo.New[string](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", i%32)
				v, _, err := c.Do(context.Background(), k, func(context.Context) (string, error) {
					return k, nil
				})
				if err != nil || v != k {
					t.Errorf("Do(%s) = %q, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got != 32 {
		t.Fatalf("len = %d, want 32", got)
	}
}

func TestGet(t *testing.T) {
	c := memo.New[int](10)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache")
	}
	c.Do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil })
	if v, ok := c.Get("k"); !ok || v != 3 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
}
