package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// writeFor streams synthFor's body, so the sized writer path and the
// plain Synth path can be compared byte-for-byte.
func writeFor(size int) func(io.Writer, ChunkKey) error {
	synth := synthFor(size)
	return func(w io.Writer, k ChunkKey) error {
		body, err := synth(context.Background(), k)
		if err != nil {
			return err
		}
		_, err = w.Write(body)
		return err
	}
}

// fixedSize is a size model that reports n for every key.
func fixedSize(n int) func(ChunkKey) (int, error) {
	return func(ChunkKey) (int, error) { return n, nil }
}

// TestWriterStoreMatchesPlainStore: streaming a miss into its
// exact-size buffer must not change a single byte versus a plain Synth
// that returns the built body.
func TestWriterStoreMatchesPlainStore(t *testing.T) {
	plainStore := New(synthFor(256), StoreConfig{Shards: 2})
	writerStore := newSizedStore(fixedSize(256), writeFor(256), StoreConfig{Shards: 2})
	for i := 0; i < 8; i++ {
		a, err := plainStore.Get(context.Background(), key(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := writerStore.Get(context.Background(), key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("key %d: streamed body differs from the plain synth's", i)
		}
		if len(b) != cap(b) {
			t.Fatalf("key %d: streamed body not exact-size: len %d cap %d", i, len(b), cap(b))
		}
	}
}

// TestChunkLenAndChunkTo pins the streaming origin seam: ChunkLen
// reports the size model's exact length without synthesizing, ChunkTo
// streams the same bytes Chunk returns, and a store without a size
// model refuses ChunkLen.
func TestChunkLenAndChunkTo(t *testing.T) {
	k := key(3)
	want, _ := synthFor(96)(context.Background(), k)
	st := newSizedStore(fixedSize(96), writeFor(96), StoreConfig{})
	n, err := st.ChunkLen(k.Video, k.Quality, k.Tile, k.Index, k.Layer)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("ChunkLen = %d, want %d", n, len(want))
	}
	if st.Len() != 0 {
		t.Fatal("ChunkLen synthesized a body")
	}
	var buf bytes.Buffer
	wrote, err := st.ChunkTo(context.Background(), &buf, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("ChunkTo streamed %d bytes %q, want %q", wrote, buf.Bytes(), want)
	}

	plain := New(synthFor(96), StoreConfig{})
	if _, err := plain.ChunkLen(k.Video, k.Quality, k.Tile, k.Index, k.Layer); err == nil {
		t.Fatal("store without a size model reported a ChunkLen")
	}
}

// TestWriterStoreSizeMismatchFails: a synthesizer whose stream does
// not match its size report fails the Get and caches nothing — a
// half-built body must never become the cached truth.
func TestWriterStoreSizeMismatchFails(t *testing.T) {
	short := newSizedStore(fixedSize(100), func(w io.Writer, k ChunkKey) error {
		_, err := w.Write(make([]byte, 60))
		return err
	}, StoreConfig{Shards: 1})
	if _, err := short.Get(context.Background(), key(0)); err == nil {
		t.Fatal("under-writing synth accepted")
	}
	if short.Contains(key(0)) {
		t.Fatal("mismatched body cached")
	}

	long := newSizedStore(fixedSize(10), func(w io.Writer, k ChunkKey) error {
		_, err := w.Write(make([]byte, 24))
		return err
	}, StoreConfig{Shards: 1})
	if _, err := long.Get(context.Background(), key(0)); err == nil {
		t.Fatal("over-writing synth accepted")
	}

	boom := fmt.Errorf("boom")
	failing := newSizedStore(func(k ChunkKey) (int, error) { return 0, boom },
		func(w io.Writer, k ChunkKey) error { return nil }, StoreConfig{Shards: 1})
	if _, err := failing.Get(context.Background(), key(0)); err == nil {
		t.Fatal("size error not propagated")
	}
}

// TestCatalogStoreStreamedMatchesBuild pins the cache==stream==build
// acceptance bar end to end: the catalog store's streamed miss path
// produces exactly dash.BuildChunkBody's bytes, for base chunks and
// SVC layers, and the cached bodies are exact-size.
func TestCatalogStoreStreamedMatchesBuild(t *testing.T) {
	v := &media.Video{
		ID:             "svc-demo",
		Duration:       12 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingSVC,
	}
	cat := dash.NewCatalog()
	if err := cat.Add(v); err != nil {
		t.Fatal(err)
	}
	st := NewCatalogStore(cat, StoreConfig{Shards: 2})
	for _, layer := range []bool{false, true} {
		want, err := dash.BuildChunkBody(v, 2, 5, 3, layer)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(context.Background(), ChunkKey{Video: v.ID, Quality: 2, Tile: 5, Index: 3, Layer: layer})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("layer=%v: cached body differs from BuildChunkBody", layer)
		}
		if len(got) != cap(got) {
			t.Fatalf("layer=%v: cached body not sealed", layer)
		}
	}
	// A hit serves the resident body.
	if !st.Contains(ChunkKey{Video: v.ID, Quality: 2, Tile: 5, Index: 3}) {
		t.Fatal("chunk not resident after miss")
	}
}

// TestWriterStoreColdAllocBudget pins the streamed miss path's
// allocation count: the body, the singleflight bookkeeping and nothing
// else — in particular no scratch buffer, no copy of the body, and no
// flight context for a leader that cannot be canceled.
func TestWriterStoreColdAllocBudget(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	ctx := context.Background()
	block := make([]byte, 64)
	zero := newSizedStore(fixedSize(512), func(w io.Writer, k ChunkKey) error {
		for i := 0; i < 8; i++ {
			if _, err := w.Write(block); err != nil {
				return err
			}
		}
		return nil
	}, StoreConfig{Shards: 1, BudgetBytes: 1})
	// Warm the writer pool.
	if _, err := zero.Get(ctx, key(0)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := zero.Get(ctx, key(1)); err != nil {
			t.Fatal(err)
		}
	})
	// Body + flight struct + done channel.
	if allocs > 3 {
		t.Fatalf("streamed cold Get: %v allocs/op, want <= 3", allocs)
	}
}
