package serve

import (
	"context"
	"fmt"
	"io"
	"sync"

	"sperke/internal/dash"
)

// NewCatalogStore builds a Store whose miss path streams chunk bodies
// from a dash catalog with dash.WriteChunkBody — the single writer-
// first synthesis routine the store-less serving path uses, so cached
// and streamed bodies are byte-identical by construction. Each miss
// allocates the body at its exact length (dash.ChunkBodyLen) and the
// synthesis fills it in place in one generator pass; a miss performs
// no other body-sized work. The store's size model answers ChunkLen.
// Wire it under a server with dash.WithStore:
//
//	store := serve.NewCatalogStore(catalog, serve.StoreConfig{BudgetBytes: 256 << 20})
//	srv := dash.NewServer(catalog, dash.WithStore(store))
func NewCatalogStore(cat *dash.Catalog, cfg StoreConfig) *Store {
	return newSizedStore(func(key ChunkKey) (int, error) {
		v, ok := cat.Get(key.Video)
		if !ok {
			return 0, fmt.Errorf("serve: video %q not in catalog", key.Video)
		}
		return dash.ChunkBodyLen(v, key.Quality, key.Tile, key.Index, key.Layer)
	}, func(w io.Writer, key ChunkKey) error {
		v, ok := cat.Get(key.Video)
		if !ok {
			return fmt.Errorf("serve: video %q not in catalog", key.Video)
		}
		return dash.WriteChunkBody(w, v, key.Quality, key.Tile, key.Index, key.Layer)
	}, cfg)
}

// newSizedStore builds a store over an exact size model and a writer
// that streams the body: each miss allocates the body at size(key)
// bytes and write fills it, so the cached slice is the miss's only
// body-sized allocation. Both functions must be pure; a stream that
// disagrees with its size fails the Get rather than caching a
// half-built body.
func newSizedStore(size func(ChunkKey) (int, error), write func(io.Writer, ChunkKey) error, cfg StoreConfig) *Store {
	s := New(func(_ context.Context, key ChunkKey) ([]byte, error) {
		n, err := size(key)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("serve: sized synth for %s reports negative length %d", key, n)
		}
		sw := writerPool.Get().(*sliceWriter)
		sw.buf = make([]byte, 0, n)
		err = write(sw, key)
		body := sw.buf
		sw.buf = nil
		writerPool.Put(sw)
		if err != nil {
			return nil, err
		}
		if len(body) != n {
			return nil, fmt.Errorf("serve: sized synth for %s wrote %d bytes, want %d", key, len(body), n)
		}
		return body, nil
	}, cfg)
	s.size = size
	return s
}

// writerPool recycles the exact-size destinations the sized miss path
// streams into, keeping the per-miss allocation count at the body
// alone.
var writerPool = sync.Pool{New: func() any { return new(sliceWriter) }}

// sliceWriter is the exact-size destination of a sized miss. It lends
// its spare capacity through AvailableBuffer, so a writer-first
// synthesis with room for the whole body (media.WriteSyntheticSegment)
// builds it in place in one generator pass; Write then commits that
// same spare capacity by extending the length instead of copying the
// bytes onto themselves. Any other slice is appended. Write never
// fails.
type sliceWriter struct{ buf []byte }

func (sw *sliceWriter) AvailableBuffer() []byte { return sw.buf[len(sw.buf):] }

func (sw *sliceWriter) Write(p []byte) (int, error) {
	if n := len(sw.buf); len(p) > 0 && len(p) <= cap(sw.buf)-n && &sw.buf[:n+1][n] == &p[0] {
		sw.buf = sw.buf[:n+len(p)]
		return len(p), nil
	}
	sw.buf = append(sw.buf, p...)
	return len(p), nil
}

// Chunk implements dash.ChunkSource over the sharded cache.
func (s *Store) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	return s.Get(ctx, ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
}

// ChunkTo streams the addressed chunk body into w: a Get (cache hit,
// or the synthesis it triggers) followed by one write of the cached
// body — no second body-sized copy anywhere.
func (s *Store) ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error) {
	body, err := s.Get(ctx, ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
	if err != nil {
		return 0, err
	}
	n, err := w.Write(body)
	return int64(n), err
}
