// Package serve is Sperke's horizontally-sharded serving layer: the
// piece of the ROADMAP's "heavy traffic from millions of users" story
// that makes one origin cheap to hit. Two components live here:
//
//   - Store, a sharded chunk cache: N power-of-two lock-striped shards
//     keyed by FNV-1a of (video, quality, tile, layer, index), each with
//     its own LRU list and a slice of the global byte budget, plus
//     singleflight de-duplication so a thundering herd of cold requests
//     for the same chunk synthesizes its body exactly once. A miss runs
//     the store's one Synth (see New); the slice it returns is cached
//     as-is, capacity clipped to length, and served read-only. The
//     catalog store (NewCatalogStore) streams each miss into an
//     exact-size buffer, so the cold path allocates only what the
//     cache retains.
//
//   - Engine, a worker-pool session driver: K simulated viewers (each a
//     core.Session, optionally doubled by a dash.Client fetching the
//     same chunks over real HTTP) run concurrently on a bounded pool
//     while per-session seeded determinism is preserved, reporting
//     aggregate QoE and p50/p95/p99 fetch latency through internal/obs.
//
// Everything in this package is deterministic on the simulation side:
// per-session QoE is a pure function of the session seed regardless of
// worker count. The only wall-clock reads are the HTTP fetch-latency
// measurements, taken through the obs.Wall seam sperke-vet allowlists.
package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"sperke/internal/obs"
)

// ChunkKey addresses one servable chunk body: an AVC chunk or a single
// SVC layer of a tile at one interval of one video.
type ChunkKey struct {
	Video   string
	Quality int
	Tile    int
	Index   int
	Layer   bool
}

func (k ChunkKey) String() string {
	form := "avc"
	if k.Layer {
		form = "svc-layer"
	}
	return fmt.Sprintf("%s/q%d/t%d/i%d(%s)", k.Video, k.Quality, k.Tile, k.Index, form)
}

// hash folds the key with FNV-1a so shard assignment is stable across
// processes and Go versions.
func (k ChunkKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	step := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < len(k.Video); i++ {
		step(k.Video[i])
	}
	for _, v := range [3]int{k.Quality, k.Tile, k.Index} {
		u := uint64(v)
		for s := 0; s < 64; s += 8 {
			step(byte(u >> s))
		}
	}
	if k.Layer {
		step(1)
	} else {
		step(0)
	}
	return h
}

// Synth produces the chunk body for a key on a cache miss. It must be
// pure on success: the same key always yields the same bytes, so a
// cached body is indistinguishable from a fresh one. The store caches
// the returned slice as-is — no copy — so ownership passes to the
// store: the synth must never mutate (or reuse the backing array of) a
// slice it has returned. A synth may observe ctx and abort early with
// ctx.Err(); the store cancels it only when every caller sharing the
// synthesis has departed (see Get).
type Synth func(ctx context.Context, key ChunkKey) ([]byte, error)

// StoreConfig tunes a Store. The zero value gives 16 shards and a
// 256 MiB budget with no metrics.
type StoreConfig struct {
	// Shards is the shard count, rounded up to a power of two; 0
	// defaults to 16.
	Shards int
	// BudgetBytes is the global cache budget, partitioned evenly across
	// shards (each shard evicts its own LRU tail past its slice, so the
	// whole store never exceeds the budget); 0 defaults to 256 MiB.
	BudgetBytes int64
	// Obs, when set, records hits, misses, evictions, uncacheable
	// oversized bodies, singleflight-shared synths and resident bytes
	// (serve.store.*). Nil disables metrics.
	Obs *obs.Registry
}

// flight is one in-progress synthesis; concurrent callers for the same
// key wait on done instead of synthesizing again. interest counts the
// callers — leader plus waiters — still wanting the result; each
// departure decrements it under the shard lock, and a flight with its
// own context is canceled when it reaches zero (see Store.abandon).
type flight struct {
	done     chan struct{}
	body     []byte
	err      error
	interest int
	// cancel aborts the flight's own context; nil when the flight runs
	// on its leader's context (see Get).
	cancel context.CancelFunc
}

// newFlightCtx mints the context a synthesis flight runs on. It is a
// fresh root by design — the flight outlives any single caller and is
// shared by everyone who arrives while it is in progress — and is the
// allowlisted ctxflow seam for this package: cancellation still
// reaches the flight, but only when the last interested caller
// departs.
func newFlightCtx() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// entry is one cached body on a shard's LRU list.
type entry struct {
	key  ChunkKey
	body []byte
}

// shard is one lock stripe: its own map, LRU list, byte accounting and
// in-flight synthesis table.
type shard struct {
	mu       sync.Mutex
	entries  map[ChunkKey]*list.Element
	lru      list.List // front = most recently used
	bytes    int64
	budget   int64
	inflight map[ChunkKey]*flight
}

// storeMetrics caches the store's instruments; nil fields no-op.
type storeMetrics struct {
	hits        *obs.Counter
	misses      *obs.Counter
	evictions   *obs.Counter
	uncacheable *obs.Counter
	shared      *obs.Counter
	bytes       *obs.Gauge
}

// Store is the sharded chunk cache. Safe for concurrent use. Bodies
// returned by Get are shared with the cache and must be treated as
// read-only (see Get for the exact contract).
type Store struct {
	shards []*shard
	mask   uint64
	synth  Synth
	// size, when set, reports a key's exact body length without
	// synthesizing it — the size model NewCatalogStore carries and
	// ChunkLen serves.
	size func(ChunkKey) (int, error)
	met  storeMetrics
}

// New builds a store whose misses run synth. A nil synth is a
// programming error and panics.
func New(synth Synth, cfg StoreConfig) *Store {
	if synth == nil {
		panic("serve: New needs a Synth")
	}
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	budget := cfg.BudgetBytes
	if budget <= 0 {
		budget = 256 << 20
	}
	per := budget / int64(p)
	if per < 1 {
		per = 1
	}
	s := &Store{
		shards: make([]*shard, p),
		mask:   uint64(p - 1),
		synth:  synth,
		met: storeMetrics{
			hits:        cfg.Obs.Counter("serve.store.hits"),
			misses:      cfg.Obs.Counter("serve.store.misses"),
			evictions:   cfg.Obs.Counter("serve.store.evictions"),
			uncacheable: cfg.Obs.Counter("serve.store.uncacheable"),
			shared:      cfg.Obs.Counter("serve.store.singleflight_shared"),
			bytes:       cfg.Obs.Gauge("serve.store.bytes"),
		},
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			entries:  make(map[ChunkKey]*list.Element),
			budget:   per,
			inflight: make(map[ChunkKey]*flight),
		}
	}
	return s
}

// Shards reports the shard count (always a power of two).
func (s *Store) Shards() int { return len(s.shards) }

func (s *Store) shard(k ChunkKey) *shard { return s.shards[k.hash()&s.mask] }

// Get returns the body for key, synthesizing it on a miss. Concurrent
// callers for the same cold key share one synthesis (singleflight); the
// non-leading callers block until the leader finishes or their context
// expires. A flight whose leader can be canceled runs on its own
// context, canceled once every sharing caller has departed, so an
// origin fetch nobody is waiting on anymore aborts instead of
// completing into the void; one caller's cancellation never disturbs a
// flight others still want.
//
// Immutability contract: the returned slice is the cache's own copy,
// shared by every caller that asks for the same key — it is strictly
// read-only. Callers must not write through it, reslice it beyond its
// length, or append to it in place; mutating it corrupts the body
// every later viewer receives. The store clips every body's capacity
// to its length, so an accidental append reallocates instead of
// scribbling on cached bytes.
func (s *Store) Get(ctx context.Context, key ChunkKey) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh := s.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(el)
		body := el.Value.(*entry).body
		sh.mu.Unlock()
		s.met.hits.Inc()
		return body, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		fl.interest++
		sh.mu.Unlock()
		s.met.shared.Inc()
		select {
		case <-fl.done:
			return fl.body, fl.err
		case <-ctx.Done():
			s.abandon(sh, key, fl)
			return nil, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{}), interest: 1}
	// A leader that can never leave keeps the interest count above zero
	// for the flight's whole life, so only a cancelable leader needs a
	// flight context of its own.
	synthCtx := ctx
	if ctx.Done() != nil {
		synthCtx, fl.cancel = newFlightCtx()
	}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	s.met.misses.Inc()
	stop := func() bool { return false }
	if fl.cancel != nil {
		// The leader's departure is its caller's cancellation: release
		// its interest then, so a flight nobody wants anymore aborts the
		// synthesis instead of running to completion at the origin.
		stop = context.AfterFunc(ctx, func() { s.abandon(sh, key, fl) })
	}
	fl.body, fl.err = s.synth(synthCtx, key)
	stop()
	fl.body = fl.body[:len(fl.body):len(fl.body)]

	sh.mu.Lock()
	if sh.inflight[key] == fl {
		delete(sh.inflight, key)
	}
	if fl.err == nil {
		s.insertLocked(sh, key, fl.body)
	}
	sh.mu.Unlock()
	close(fl.done)
	if fl.cancel != nil {
		fl.cancel()
	}
	return fl.body, fl.err
}

// abandon releases one caller's interest in a flight. When the last
// interested caller departs from a flight that has its own context and
// is still in progress, the flight is deregistered (so late arrivals
// start fresh instead of joining a dying flight) and its context
// canceled, aborting the synthesis.
func (s *Store) abandon(sh *shard, key ChunkKey, fl *flight) {
	sh.mu.Lock()
	fl.interest--
	dying := fl.cancel != nil && fl.interest == 0 && sh.inflight[key] == fl
	if dying {
		delete(sh.inflight, key)
	}
	sh.mu.Unlock()
	if dying {
		fl.cancel()
	}
}

// insertLocked caches a freshly synthesized body, evicting the shard's
// LRU tail past its budget slice. An existing entry wins — bodies are
// pure functions of the key, and an abandoned flight whose synth ran
// to completion anyway may finish after a fresh flight already cached
// the key. A body larger than the whole slice is served but never
// cached (keep-zero, matching the player caches' refusal to hold
// something that would immediately evict everything).
func (s *Store) insertLocked(sh *shard, key ChunkKey, body []byte) {
	if _, ok := sh.entries[key]; ok {
		return
	}
	size := int64(len(body))
	if size > sh.budget {
		s.met.uncacheable.Inc()
		return
	}
	el := sh.lru.PushFront(&entry{key: key, body: body})
	sh.entries[key] = el
	sh.bytes += size
	s.met.bytes.Add(size)
	for sh.bytes > sh.budget {
		tail := sh.lru.Back()
		if tail == nil || tail == el {
			break
		}
		ev := tail.Value.(*entry)
		sh.lru.Remove(tail)
		delete(sh.entries, ev.key)
		sh.bytes -= int64(len(ev.body))
		s.met.bytes.Add(-int64(len(ev.body)))
		s.met.evictions.Inc()
	}
}

// Reset drops every cached body, returning the store to cold — a
// crashed-and-restarted edge node models its lost cache with this.
// In-flight synthesis is untouched: a flight in progress completes,
// hands its waiters the body, and re-inserts it into the emptied
// cache.
func (s *Store) Reset() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		dropped := sh.bytes
		sh.entries = make(map[ChunkKey]*list.Element)
		sh.lru.Init()
		sh.bytes = 0
		sh.mu.Unlock()
		s.met.bytes.Add(-dropped)
	}
}

// Put warms the cache with an already-built body for key — the
// replication write path: a cluster owner that just served a body
// hands the same cached slice to the key's other owners, so a warm
// costs no synthesis and no copy. The body must be immutable and is
// retained as the shared cached copy (a slice previously returned by
// Get satisfies the contract). An existing entry wins (see
// insertLocked). Reports whether the body is resident afterwards
// (false for duplicates and for bodies too large to cache).
func (s *Store) Put(key ChunkKey, body []byte) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[key]; ok {
		return false
	}
	s.insertLocked(sh, key, body)
	_, ok := sh.entries[key]
	return ok
}

// ChunkLen reports the exact body length the store would serve for the
// addressed chunk without synthesizing it. Only a catalog store carries
// a size model; others return an error.
func (s *Store) ChunkLen(videoID string, quality, tile, index int, layer bool) (int, error) {
	key := ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}
	if s.size == nil {
		return 0, fmt.Errorf("serve: store has no size model for %s", key)
	}
	return s.size(key)
}

// Contains reports whether key is resident (without touching LRU
// order).
func (s *Store) Contains(key ChunkKey) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[key]
	return ok
}

// Bytes reports the resident body bytes across all shards.
func (s *Store) Bytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Len reports the resident entry count across all shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
