package serve

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestCtxStoreCancelAbortsLoneFlight is the cancellation contract that
// motivated the per-flight context: when the only caller interested in a cold key
// departs, the flight's context is canceled and the synthesis aborts
// instead of completing into the void. Before the context-aware store,
// the miss path ran on context.Background and this synth hung forever.
func TestCtxStoreCancelAbortsLoneFlight(t *testing.T) {
	entered := make(chan struct{})
	aborted := make(chan error, 1)
	st := New(func(ctx context.Context, k ChunkKey) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		aborted <- ctx.Err()
		return nil, ctx.Err()
	}, StoreConfig{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := st.Get(ctx, key(1))
		done <- err
	}()
	<-entered
	cancel()

	select {
	case err := <-aborted:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("flight context ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("synthesis never observed the lone caller's cancellation")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Get returned %v, want context.Canceled", err)
	}
	if st.Contains(key(1)) {
		t.Fatal("aborted flight must not cache a body")
	}
}

// TestCtxStoreFlightSurvivesOneCancel: a shared flight is canceled only
// when the LAST interested caller departs — one waiter leaving must not
// poison the body everyone else is waiting on.
func TestCtxStoreFlightSurvivesOneCancel(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	want := bytes.Repeat([]byte{0xcd}, 256)
	var flightCanceled atomic.Bool
	st := New(func(ctx context.Context, k ChunkKey) ([]byte, error) {
		close(entered)
		select {
		case <-ctx.Done():
			flightCanceled.Store(true)
			return nil, ctx.Err()
		case <-release:
			return want, nil
		}
	}, StoreConfig{})

	k := key(2)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := st.Get(context.Background(), k)
		leaderDone <- err
	}()
	<-entered

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := st.Get(waiterCtx, k)
		waiterDone <- err
	}()
	cancelWaiter()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader error: %v — the waiter's departure poisoned the shared flight", err)
	}
	if flightCanceled.Load() {
		t.Fatal("flight context was canceled while the leader still wanted the body")
	}
	if !st.Contains(k) {
		t.Fatal("completed flight should have cached the body")
	}
}

// TestCtxStoreRetryAfterAbandonStartsFresh: once a flight is abandoned,
// the next caller starts a new synthesis rather than joining the dying
// flight and inheriting its cancellation.
func TestCtxStoreRetryAfterAbandonStartsFresh(t *testing.T) {
	var calls atomic.Int32
	entered := make(chan struct{})
	want := []byte("fresh")
	st := New(func(ctx context.Context, k ChunkKey) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return want, nil
	}, StoreConfig{})

	k := key(3)
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := st.Get(ctx, k)
		first <- err
	}()
	<-entered
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Get returned %v, want context.Canceled", err)
	}
	// The first flight may still be unwinding; retry until the fresh
	// synthesis lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, err := st.Get(context.Background(), k)
		if err == nil {
			if !bytes.Equal(body, want) {
				t.Fatalf("retry returned %q, want %q", body, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry kept failing: %v", err)
		}
	}
	if got := calls.Load(); got < 2 {
		t.Fatalf("synth ran %d times, want a fresh second run", got)
	}
}

// TestAbandonedFlightCachesOnce: a synth that ignores cancellation
// keeps running after its lone caller leaves, while a retry starts a
// fresh flight that caches the key first. When the abandoned flight
// finally completes it must not insert the key a second time — a
// duplicate LRU entry would double-count the shard's bytes and later
// evict the live entry's map slot.
func TestAbandonedFlightCachesOnce(t *testing.T) {
	var calls atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	want := bytes.Repeat([]byte{0xef}, 128)
	st := New(func(_ context.Context, k ChunkKey) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return want, nil
	}, StoreConfig{Shards: 1})

	k := key(4)
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := st.Get(ctx, k)
		first <- err
	}()
	<-entered
	cancel()
	// Wait for the departure to deregister the flight.
	sh := st.shard(k)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		_, open := sh.inflight[k]
		sh.mu.Unlock()
		if !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never deregistered")
		}
		time.Sleep(time.Millisecond)
	}
	// This Get leads a fresh flight and caches the key.
	if _, err := st.Get(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-first
	if got := calls.Load(); got != 2 {
		t.Fatalf("synth ran %d times, want 2", got)
	}
	if st.Len() != 1 || st.Bytes() != int64(len(want)) {
		t.Fatalf("abandoned flight re-inserted the key: Len=%d Bytes=%d, want 1 entry of %d bytes", st.Len(), st.Bytes(), len(want))
	}
}
