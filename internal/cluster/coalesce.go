package cluster

import (
	"sync"

	"sperke/internal/serve"
)

// Cross-node miss coalescing. Each edge store already collapses a
// same-key herd that lands on ONE node into a single origin synthesis
// (serve.Store's singleflight), but the router can spray a cold herd
// across edges: a request that arrives while its primary's breaker is
// half-open walks to the next-ranked edge, and the origin fallback
// bypasses the edges entirely — so two concurrent cold opens of the
// same key could still cost the origin two syntheses. The coalescer is
// the router-level singleflight that closes that gap: the first
// request for a key becomes the flight leader and does the ranked walk;
// requests arriving while the flight is open attach as followers and
// are served from the leader's body — teed on the way past when the
// leader proxies an edge stream, shared directly when it fetched a
// whole body (the materialized walk, and the origin fallback of
// either walk) — without touching an edge or the origin at all.
//
// The one body-less case: a streaming leader that reaches its edge
// copy loop with no followers attached and no replication targets
// skips the tee (keeping the warm-path serve allocation-flat), and
// marks the flight noTee so later arrivals bypass the coalescer and do
// their own walk. Bypass is safe — the ranked walk is deterministic,
// so a bypasser lands on the same edge, whose store singleflight (or
// now-resident cache entry) still keeps the origin cost at one.

// routeRole is the position a request takes relative to a key's
// in-flight fetch.
type routeRole int

const (
	// roleLead does the ranked walk and publishes the body.
	roleLead routeRole = iota
	// roleFollow waits for the leader's body.
	roleFollow
	// roleBypass walks on its own: the open flight is streaming without
	// a tee, so there is no body to attach to.
	roleBypass
)

// routeFlight is one in-flight fetch of a key at the router. body is
// written by the leader (under the coalescer's mutex) before done
// closes; followers read it only after <-done, so the channel close is
// the publication barrier. done is made lazily by the first
// follower — a flight nobody attaches to (the common warm-path case)
// costs the leader one struct allocation and no channel.
type routeFlight struct {
	body []byte

	// done, followers and noTee are guarded by the coalescer's mutex
	// (body is written under it too, but followers may read it
	// unlocked after <-done). noTee is set by a streaming leader
	// the moment it commits to copying without a tee; from then on
	// followers can never be > 0.
	done      chan struct{}
	followers int
	noTee     bool
}

// coalescer is the router's flight table.
type coalescer struct {
	mu      sync.Mutex
	flights map[serve.ChunkKey]*routeFlight
}

func newCoalescer() *coalescer {
	return &coalescer{flights: make(map[serve.ChunkKey]*routeFlight)}
}

// enter joins or opens the key's flight and reports the caller's role.
// A nil coalescer (coalescing off) sends every request on its own walk.
func (co *coalescer) enter(key serve.ChunkKey) (*routeFlight, routeRole) {
	if co == nil {
		return nil, roleBypass
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if f := co.flights[key]; f != nil {
		if f.noTee {
			return f, roleBypass
		}
		if f.done == nil {
			f.done = make(chan struct{})
		}
		f.followers++
		return f, roleFollow
	}
	f := &routeFlight{}
	co.flights[key] = f
	return f, roleLead
}

// finish publishes the leader's body — nil when the leader got none —
// and closes the flight. Every leader must call it exactly once, on
// every exit path — a leader that panics without finishing would hang
// its followers forever, so leaders run it from a defer.
func (co *coalescer) finish(key serve.ChunkKey, f *routeFlight, body []byte) {
	co.mu.Lock()
	if co.flights[key] == f {
		delete(co.flights, key)
	}
	f.body = body
	done := f.done
	co.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// tryNoTee attempts to commit the flight to the no-tee streaming form.
// It succeeds only while no follower is attached; on success, later
// arrivals bypass. A false return means at least one follower is
// waiting and the leader must tee.
func (co *coalescer) tryNoTee(f *routeFlight) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	if f.followers > 0 {
		return false
	}
	f.noTee = true
	return true
}

// detach removes one follower that stopped waiting (its caller
// canceled). The leader keeps running — other followers, or the
// leader's own caller, may still want the body.
func (co *coalescer) detach(f *routeFlight) {
	co.mu.Lock()
	if f.followers > 0 {
		f.followers--
	}
	co.mu.Unlock()
}

// inFlight reports whether a fetch of key is currently open — the
// pre-warmer checks it to avoid racing a synthesis that is about to
// warm the same owners anyway.
func (co *coalescer) inFlight(key serve.ChunkKey) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.flights[key] != nil
}
