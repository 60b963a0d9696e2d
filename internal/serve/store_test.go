package serve

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sperke/internal/obs"
)

func key(i int) ChunkKey {
	return ChunkKey{Video: "v", Quality: 3, Tile: i % 12, Index: i}
}

// TestConcurrentColdFetchSynthesizesOnce is the singleflight contract:
// however many goroutines race on one cold key, the body is synthesized
// exactly once and everyone gets it.
func TestConcurrentColdFetchSynthesizesOnce(t *testing.T) {
	var calls int32
	entered := make(chan struct{})
	release := make(chan struct{})
	want := bytes.Repeat([]byte{0xab}, 512)
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			close(entered)
		}
		<-release
		return want, nil
	}, StoreConfig{Shards: 4, BudgetBytes: 1 << 20})

	k := key(7)
	const waiters = 32
	got := make([][]byte, waiters+1)
	errs := make([]error, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		got[0], errs[0] = st.Get(context.Background(), k)
	}()
	<-entered // leader is inside synth; everyone below must share it
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = st.Get(context.Background(), k)
		}(i)
	}
	close(release)
	wg.Wait()

	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("synth ran %d times, want 1", n)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("Get %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("Get %d returned wrong body (%d bytes)", i, len(got[i]))
		}
	}
	if !st.Contains(k) {
		t.Fatal("key not resident after synthesis")
	}
}

// TestWaiterContextCancel: a caller waiting on someone else's synthesis
// unblocks when its own context dies, without disturbing the flight.
func TestWaiterContextCancel(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		close(entered)
		<-release
		return []byte("ok"), nil
	}, StoreConfig{})

	k := key(1)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := st.Get(context.Background(), k)
		leaderDone <- err
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := st.Get(ctx, k)
		waiterDone <- err
	}()
	cancel()
	if err := <-waiterDone; err != context.Canceled {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader error: %v", err)
	}
	if !st.Contains(k) {
		t.Fatal("flight should have completed and cached despite the canceled waiter")
	}
}

// TestEvictionRespectsBudget pins the LRU byte accounting: the store
// never holds more than its budget, evicts oldest-first, and re-misses
// on an evicted key.
func TestEvictionRespectsBudget(t *testing.T) {
	var calls int32
	body := bytes.Repeat([]byte{1}, 300)
	reg := obs.NewRegistry()
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		atomic.AddInt32(&calls, 1)
		return body, nil
	}, StoreConfig{Shards: 1, BudgetBytes: 1000, Obs: reg})

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := st.Get(ctx, key(i)); err != nil {
			t.Fatal(err)
		}
		if b := st.Bytes(); b > 1000 {
			t.Fatalf("resident bytes %d exceed budget after insert %d", b, i)
		}
	}
	// 4×300 = 1200 > 1000: the oldest entry must have gone.
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	if st.Contains(key(0)) {
		t.Fatal("oldest key survived past the budget")
	}
	for i := 1; i < 4; i++ {
		if !st.Contains(key(i)) {
			t.Fatalf("key %d should be resident", i)
		}
	}
	if ev := reg.Counter("serve.store.evictions").Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if g := reg.Gauge("serve.store.bytes").Value(); g != st.Bytes() {
		t.Fatalf("bytes gauge %d != resident %d", g, st.Bytes())
	}

	// Touch key(1) so key(2) is the LRU tail, then insert a new key and
	// check recency is what eviction follows.
	if _, err := st.Get(ctx, key(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(ctx, key(4)); err != nil {
		t.Fatal(err)
	}
	if st.Contains(key(2)) {
		t.Fatal("LRU tail survived; recency not honored")
	}
	if !st.Contains(key(1)) {
		t.Fatal("recently used key evicted")
	}

	// An evicted key is a fresh miss.
	before := atomic.LoadInt32(&calls)
	if _, err := st.Get(ctx, key(0)); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != before+1 {
		t.Fatal("evicted key did not re-synthesize")
	}
}

// TestOversizedBodyUncacheable: a body larger than a shard's budget
// slice is served but never cached.
func TestOversizedBodyUncacheable(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		return make([]byte, 4096), nil
	}, StoreConfig{Shards: 1, BudgetBytes: 1024, Obs: reg})
	b, err := st.Get(context.Background(), key(0))
	if err != nil || len(b) != 4096 {
		t.Fatalf("Get = %d bytes, %v", len(b), err)
	}
	if st.Contains(key(0)) || st.Bytes() != 0 {
		t.Fatal("oversized body was cached")
	}
	if u := reg.Counter("serve.store.uncacheable").Value(); u != 1 {
		t.Fatalf("uncacheable = %d, want 1", u)
	}
}

// TestSynthErrorNotCached: a failed synthesis propagates its error and
// leaves nothing behind, so the next Get retries.
func TestSynthErrorNotCached(t *testing.T) {
	var calls int32
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			return nil, fmt.Errorf("flaky")
		}
		return []byte("ok"), nil
	}, StoreConfig{})
	if _, err := st.Get(context.Background(), key(0)); err == nil {
		t.Fatal("expected error from first synthesis")
	}
	if st.Contains(key(0)) {
		t.Fatal("error result was cached")
	}
	if _, err := st.Get(context.Background(), key(0)); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
}

// TestShardsPowerOfTwo pins the rounding and the shard mask.
func TestShardsPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		st := New(func(context.Context, ChunkKey) ([]byte, error) { return nil, nil }, StoreConfig{Shards: tc.in})
		if got := st.Shards(); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestParallelMixedWorkload hammers the store from many goroutines over
// a keyspace larger than the budget — run under -race this is the
// lock-striping soundness check.
func TestParallelMixedWorkload(t *testing.T) {
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		return bytes.Repeat([]byte{byte(k.Index)}, 200), nil
	}, StoreConfig{Shards: 8, BudgetBytes: 8 * 1024})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 200; i++ {
				k := key((g*7 + i) % 100)
				b, err := st.Get(ctx, k)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if len(b) != 200 || b[0] != byte(k.Index) {
					t.Errorf("wrong body for %v", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if b := st.Bytes(); b > 8*1024 {
		t.Fatalf("resident bytes %d exceed budget", b)
	}
}

// TestWaiterCancelWhileLeaderSynthesizes is the regression pin for the
// Get contract: a non-leading caller already parked on someone else's
// flight must return promptly with its own ctx.Err() when canceled —
// not block until the leader finishes. Unlike TestWaiterContextCancel,
// which races the cancel against the waiter's entry, this test proves
// the waiter is inside the flight select (via the singleflight_shared
// counter) before pulling its context.
func TestWaiterCancelWhileLeaderSynthesizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancel", func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}, context.Canceled},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 10*time.Millisecond)
		}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			entered := make(chan struct{})
			release := make(chan struct{})
			st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
				close(entered)
				<-release
				return []byte("ok"), nil
			}, StoreConfig{Obs: reg})

			k := key(9)
			leaderDone := make(chan error, 1)
			go func() {
				_, err := st.Get(context.Background(), k)
				leaderDone <- err
			}()
			<-entered // leader is parked inside synth

			ctx, cancel := tc.ctx()
			defer cancel()
			waiterDone := make(chan error, 1)
			go func() {
				_, err := st.Get(ctx, k)
				waiterDone <- err
			}()
			// The shared counter ticks after the waiter joins the flight
			// and before it parks in the select; once it reads 1 the
			// waiter can only be at (or headed into) the select, where
			// ctx.Done() must win.
			shared := reg.Counter("serve.store.singleflight_shared")
			for shared.Value() == 0 {
				runtime.Gosched()
			}
			if tc.name == "cancel" {
				cancel()
			}
			select {
			case err := <-waiterDone:
				if err != tc.want {
					t.Fatalf("waiter error = %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter still blocked on the leader's synthesis after its context died")
			}
			close(release)
			if err := <-leaderDone; err != nil {
				t.Fatalf("leader error: %v", err)
			}
			if !st.Contains(k) {
				t.Fatal("flight should have completed and cached despite the canceled waiter")
			}
		})
	}
}

// TestResetDropsEverything pins the crash-restart semantics the cluster
// tier relies on: Reset empties every shard and zeroes the byte gauge,
// and the next Get re-misses.
func TestResetDropsEverything(t *testing.T) {
	var calls int32
	reg := obs.NewRegistry()
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		atomic.AddInt32(&calls, 1)
		return bytes.Repeat([]byte{2}, 100), nil
	}, StoreConfig{Shards: 4, BudgetBytes: 1 << 20, Obs: reg})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := st.Get(ctx, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 20 || st.Bytes() == 0 {
		t.Fatalf("warmup: Len=%d Bytes=%d", st.Len(), st.Bytes())
	}
	st.Reset()
	if st.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", st.Len())
	}
	if st.Bytes() != 0 {
		t.Fatalf("Bytes = %d after Reset, want 0", st.Bytes())
	}
	if got := reg.Gauge("serve.store.bytes").Value(); got != 0 {
		t.Fatalf("bytes gauge = %d after Reset, want 0", got)
	}
	if _, err := st.Get(ctx, key(0)); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 21 {
		t.Fatalf("synth calls = %d, want a re-miss after Reset", calls)
	}
}

// optBody is a deterministic test body, so stores built over different
// synths can be compared byte for byte.
func optBody(k ChunkKey) []byte {
	return []byte(fmt.Sprintf("body:%s", k))
}

// TestNewRequiresExactlyOneSynth pins New's construction contract: a
// store has exactly one miss path, so building one without a synth
// panics.
func TestNewRequiresExactlyOneSynth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(nil, ...) did not panic")
		}
	}()
	New(nil, StoreConfig{Shards: 4})
}

// TestPutWarmsWithoutSynthesis pins the replication write path: Put
// inserts a pre-built body with no synthesis, a duplicate Put is a
// no-op, and the warmed body is exactly what Get returns afterwards.
func TestPutWarmsWithoutSynthesis(t *testing.T) {
	synths := 0
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		synths++
		return optBody(k), nil
	}, StoreConfig{Shards: 2})
	k := key(7)
	body := optBody(k)
	if !st.Put(k, body) {
		t.Fatal("first Put rejected")
	}
	if st.Put(k, body) {
		t.Fatal("duplicate Put reported an insert")
	}
	got, err := st.Get(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("Get returned different bytes than Put stored")
	}
	if synths != 0 {
		t.Fatalf("warm hit still synthesized %d times", synths)
	}

	tiny := New(func(_ context.Context, k ChunkKey) ([]byte, error) { return optBody(k), nil }, StoreConfig{Shards: 1, BudgetBytes: 1})
	if tiny.Put(k, body) {
		t.Fatal("oversized Put reported residency")
	}
}
