package sperke_bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sperke/internal/cluster"
	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/serve"
	"sperke/internal/tiling"
)

func benchVideo() *media.Video {
	return &media.Video{
		ID:             "bench",
		Duration:       20 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
}

func benchKeys(v *media.Video) []serve.ChunkKey {
	var keys []serve.ChunkKey
	for idx := 0; idx < v.NumChunks(); idx++ {
		for tile := 0; tile < v.Grid.Tiles(); tile++ {
			keys = append(keys, serve.ChunkKey{Video: v.ID, Quality: 3, Tile: tile, Index: idx})
		}
	}
	return keys
}

// BenchmarkChunkStore pins the sharded chunk store's cache win: "warm"
// serves resident bodies, "cold" synthesizes every request (a 1-byte
// budget makes everything uncacheable). The acceptance bar for PR 4 is
// warm ≥ 5× faster than cold; PR 5 additionally pins the allocation
// profile of both paths in BENCH_BASELINE.json.
func BenchmarkChunkStore(b *testing.B) {
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(v)
	run := func(b *testing.B, st *serve.Store) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := st.Get(ctx, keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		st := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 1})
		b.ReportAllocs()
		b.ResetTimer()
		run(b, st)
	})
	b.Run("warm", func(b *testing.B) {
		st := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 256 << 20})
		ctx := context.Background()
		for _, k := range keys {
			if _, err := st.Get(ctx, k); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		run(b, st)
	})
}

// BenchmarkAppendChunkBody pins the synthesis chain itself: "fresh"
// allocates a new body per chunk (the legacy BuildChunkBody shape),
// "reuse" rebuilds into one recycled buffer — the steady state of the
// pooled handler scratch path, which must stay at zero allocs/op.
func BenchmarkAppendChunkBody(b *testing.B) {
	v := benchVideo()
	keys := benchKeys(v)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			if _, err := dash.BuildChunkBody(v, k.Quality, k.Tile, k.Index, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			out, err := dash.AppendChunkBody(buf[:0], v, k.Quality, k.Tile, k.Index, false)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})
}

// discardResponse sinks a response body without buffering it — the
// benchmark's stand-in for a network connection, so the numbers measure
// the handler, not a recorder's append loop.
type discardResponse struct {
	h http.Header
	n int64
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

// BenchmarkColdServeThroughput pins the writer-first serving path's
// headline number: bytes per second streamed by the store-less handler,
// which regenerates every body block-by-block straight into the
// ResponseWriter (zero body materialization). b.SetBytes makes the
// gate-tracked MB/s column; allocs/op must stay at mux routing
// overhead, never body-sized.
func BenchmarkColdServeThroughput(b *testing.B) {
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		b.Fatal(err)
	}
	srv := dash.NewServer(catalog)
	bodyLen, err := dash.ChunkBodyLen(v, 3, 0, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v/bench/c/3/0/0", nil)
	w := &discardResponse{h: make(http.Header, 4)}
	srv.ServeHTTP(w, req) // warm the mux and block pool
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, req)
	}
	if w.n == 0 {
		b.Fatal("no bytes served")
	}
}

// BenchmarkWireWarmProxyThroughput pins the wire cluster's router
// proxy path over a warm edge: the key is cached on its owning edge
// before timing, then every front-door GET rendezvous-routes to that
// edge over its loopback carrier and the router streams the edge's
// cached body into the ResponseWriter through a pooled copy block. No
// op synthesizes. The router holds no cache of its own — every op is a
// full over-the-wire round trip — so allocs/op is the price of one
// proxied request and must never grow body-sized (the
// streamdiscipline vet bans io.ReadAll on this path; benchgate pins
// the number).
func BenchmarkWireWarmProxyThroughput(b *testing.B) {
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		b.Fatal(err)
	}
	origin := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 256 << 20})
	c, err := cluster.New(origin,
		cluster.WithNodes(3),
		cluster.WithLoopback(),
		cluster.WithCatalog(catalog),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, name := range c.NodeNames() {
			c.RemoveNode(name)
		}
	}()
	front := c.FrontDoor()
	bodyLen, err := dash.ChunkBodyLen(v, 3, 0, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v/bench/c/3/0/0", nil)
	w := &discardResponse{h: make(http.Header, 4)}
	front.ServeHTTP(w, req) // warm the owning edge and the copy pool
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front.ServeHTTP(w, req)
	}
	if w.n == 0 {
		b.Fatal("no bytes served")
	}
}

// BenchmarkWireCoalescedHerd pins the router singleflight's price
// under contention: parallel front-door GETs of one warm key, so every
// op runs the coalescer's enter/finish protocol (leading its own
// flight or briefly following a concurrent one) on top of the proxied
// round trip. The column to watch is allocs/op — a flight costs its
// leader one struct, and the protocol must never add body-sized work
// or a channel per uncontended op.
func BenchmarkWireCoalescedHerd(b *testing.B) {
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		b.Fatal(err)
	}
	origin := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 256 << 20})
	c, err := cluster.New(origin,
		cluster.WithNodes(3),
		cluster.WithLoopback(),
		cluster.WithCatalog(catalog),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	defer func() {
		for _, name := range c.NodeNames() {
			c.RemoveNode(name)
		}
	}()
	front := c.FrontDoor()
	bodyLen, err := dash.ChunkBodyLen(v, 3, 0, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	warm := httptest.NewRequest("GET", "/v/bench/c/3/0/0", nil)
	front.ServeHTTP(&discardResponse{h: make(http.Header, 4)}, warm)
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest("GET", "/v/bench/c/3/0/0", nil)
		w := &discardResponse{h: make(http.Header, 4)}
		for pb.Next() {
			front.ServeHTTP(w, req)
		}
	})
}

// BenchmarkConcurrentSessions pins the session engine's scaling: 32
// simulated viewers at 1 worker vs 8. The acceptance bar is >2× wall
// speedup at 8 workers — with byte-identical per-session QoE, which the
// benchmark itself verifies against the first run's reports.
func BenchmarkConcurrentSessions(b *testing.B) {
	v := benchVideo()
	var baseline []serve.SessionResult
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := serve.NewEngine(serve.EngineConfig{
					Video:    v,
					Sessions: 32,
					Workers:  workers,
					BaseSeed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				res := eng.Run(context.Background())
				if baseline == nil {
					baseline = res.Sessions
					continue
				}
				for j := range res.Sessions {
					if !reflect.DeepEqual(res.Sessions[j].Report, baseline[j].Report) {
						b.Fatalf("session %d QoE differs from the 1-worker baseline", j)
					}
				}
			}
		})
	}
}
