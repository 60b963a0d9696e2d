package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/serve"
	"sperke/internal/sim"
	"sperke/internal/tiling"
)

// wireVideo is the catalog entry wire tests address chunks against —
// node dash.Servers validate every chunk address against it.
func wireVideo() *media.Video {
	return &media.Video{
		ID:             "wire",
		Duration:       20 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
}

// wireKeys is 48 distinct valid chunk addresses for wireVideo.
func wireKeys(v *media.Video) []serve.ChunkKey {
	var keys []serve.ChunkKey
	for idx := 0; idx < 2; idx++ {
		for tile := 0; tile < v.Grid.Tiles(); tile++ {
			for q := 0; q < 3; q++ {
				keys = append(keys, serve.ChunkKey{Video: v.ID, Quality: q, Tile: tile, Index: idx})
			}
		}
	}
	return keys
}

func wireCatalog(t *testing.T, v *media.Video) *dash.Catalog {
	t.Helper()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		t.Fatal(err)
	}
	return catalog
}

func chunkGET(t *testing.T, h http.Handler, key serve.ChunkKey) *httptest.ResponseRecorder {
	t.Helper()
	path := fmt.Sprintf("/v/%s/c/%d/%d/%d", key.Video, key.Quality, key.Tile, key.Index)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestWireClusterServesOverLoopback pins the wire tentpole end to end
// on the deterministic transport: the front door proxies each chunk
// from its rendezvous owner's own HTTP process as a stream
// (Content-Length forwarded), the owner caches it, and a warm replay
// never touches the origin.
func TestWireClusterServesOverLoopback(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(3), WithLoopback(), WithCatalog(wireCatalog(t, v)),
		WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	keys := wireKeys(v)
	for _, key := range keys {
		rec := chunkGET(t, c.FrontDoor(), key)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %v: status %d: %s", key, rec.Code, rec.Body.String())
		}
		want := originBody(key)
		if rec.Body.String() != string(want) {
			t.Fatalf("key %v: body %q, want %q", key, rec.Body.String(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Fatalf("key %v: Content-Length %q, want %d", key, got, len(want))
		}
	}
	if origin.count() != len(keys) {
		t.Fatalf("cold pass cost %d origin fetches, want %d", origin.count(), len(keys))
	}
	// Every key lives on exactly its rendezvous owner (R=1).
	for _, key := range keys {
		top := Rank(key, c.NodeNames())[0]
		for _, n := range c.Nodes() {
			if n.Store().Contains(key) != (n.ID() == top) {
				t.Fatalf("key %v: cached on %s, rendezvous owner is %s", key, n.ID(), top)
			}
		}
	}
	for _, key := range keys {
		if rec := chunkGET(t, c.FrontDoor(), key); rec.Code != http.StatusOK {
			t.Fatalf("warm GET %v: status %d", key, rec.Code)
		}
	}
	if origin.count() != len(keys) {
		t.Fatalf("warm pass refetched from the origin (%d total, want %d)", origin.count(), len(keys))
	}
}

// TestWireKillIsConnectionRefused pins the honest failure mode of the
// wire form: a killed node's client meets ECONNREFUSED — not a typed
// in-process sentinel — and the router fails the key over to its
// next-ranked owner.
func TestWireKillIsConnectionRefused(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(3), WithLoopback(), WithCatalog(wireCatalog(t, v)),
		WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	key := wireKeys(v)[0]
	ranked := Rank(key, c.NodeNames())
	dead, second := ranked[0], ranked[1]
	c.KillNode(dead)

	if _, err := c.Node(dead).openWire(context.Background(), key); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("killed node's wire error = %v, want ECONNREFUSED", err)
	}
	body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatalf("failover fetch: %v", err)
	}
	if string(body) != string(originBody(key)) {
		t.Fatalf("failover body %q, want %q", body, originBody(key))
	}
	if !c.Node(second).Store().Contains(key) {
		t.Fatalf("failover did not land on next-ranked %s", second)
	}
	if got := c.met.reroutes.Value(); got != 1 {
		t.Fatalf("reroutes = %d, want 1", got)
	}
	// Recover rebinds (loopback: re-accepts); the probe path comes back.
	c.RecoverNode(dead)
	if err := c.Node(dead).Ping(); err != nil {
		t.Fatalf("recovered node's wire probe: %v", err)
	}
}

// TestWireRealListeners exercises WithWire(true) — actual TCP
// listeners on loopback: chunks served over real sockets, Kill closes
// the listener (dial refused), Recover re-binds the same address.
func TestWireRealListeners(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(2), WithWire(true), WithCatalog(wireCatalog(t, v)),
		WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range c.Nodes() {
			n.retire()
		}
	}()
	key := wireKeys(v)[0]
	top := Rank(key, c.NodeNames())[0]
	n := c.Node(top)
	if n.Addr() == "" {
		t.Fatal("wire node has no listen address")
	}
	body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatalf("wire fetch over real listener: %v", err)
	}
	if string(body) != string(originBody(key)) {
		t.Fatalf("wire body %q, want %q", body, originBody(key))
	}

	addr := n.Addr()
	n.Kill()
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("dialing a killed node's listener succeeded")
	}
	n.Recover()
	if n.Addr() != addr {
		t.Fatalf("recovered node moved from %s to %s", addr, n.Addr())
	}
	if err := n.Ping(); err != nil {
		t.Fatalf("probe after re-bind: %v", err)
	}
}

// TestWireReplicationSurvivesOwnerKill is the replication acceptance
// (E23): with R=2 every served body lands on both rendezvous owners,
// so killing either one and replaying the whole key set costs exactly
// zero incremental origin fetches — an equality on counters, not a
// bound. Warm writes are asynchronous now, so the equality is eventual
// until DrainWarms fences the warm queue; after the fence it is exact
// again.
func TestWireReplicationSurvivesOwnerKill(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(3), WithReplication(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	keys := wireKeys(v)
	for _, key := range keys {
		if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
			t.Fatalf("warm pass %v: %v", key, err)
		}
	}
	if origin.count() != len(keys) {
		t.Fatalf("warm pass cost %d origin fetches, want %d", origin.count(), len(keys))
	}
	// The replication write-through runs on the warm worker; the fence
	// turns "eventually both owners hold every key" into an exact
	// assertion.
	c.DrainWarms()
	if got := c.Warms(); got != int64(len(keys)) {
		t.Fatalf("warms = %d, want one per key = %d", got, len(keys))
	}
	for _, key := range keys {
		for _, id := range Owners(key, c.NodeNames(), 2) {
			if !c.Node(id).Store().Contains(key) {
				t.Fatalf("key %v missing from owner %s", key, id)
			}
		}
	}

	const dead = "edge-1"
	deadOwned := 0
	for _, key := range keys {
		if Rank(key, c.NodeNames())[0] == dead {
			deadOwned++
		}
	}
	if deadOwned == 0 {
		t.Fatal("no key's primary owner is the node being killed; scenario asserts nothing")
	}
	c.KillNode(dead)
	before := origin.count()
	reroutesBefore := c.met.reroutes.Value()
	for _, key := range keys {
		body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		if err != nil {
			t.Fatalf("post-kill fetch %v: %v", key, err)
		}
		if string(body) != string(originBody(key)) {
			t.Fatalf("post-kill body mismatch for %v", key)
		}
	}
	if got := origin.count(); got != before {
		t.Fatalf("killing a replicated owner cost %d incremental origin fetches, want exactly 0", got-before)
	}
	if got := c.met.reroutes.Value() - reroutesBefore; got != int64(deadOwned) {
		t.Fatalf("post-kill pass rerouted %d keys, want exactly the dead node's %d", got, deadOwned)
	}
}

// TestRemoveNodeWithReplicationCostsNoRefetch: draining a member out of
// a replicated cluster is free for warm keys — the surviving owner
// already holds every copy — and the retired node's process refuses.
func TestRemoveNodeWithReplicationCostsNoRefetch(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(3), WithReplication(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	keys := wireKeys(v)
	for _, key := range keys {
		if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
			t.Fatal(err)
		}
	}
	// Fence the async replication writes: removal is only free once the
	// surviving owner actually holds the copies.
	c.DrainWarms()
	const drained = "edge-2"
	removed := c.Node(drained)
	if err := c.RemoveNode(drained); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(drained); err == nil {
		t.Fatal("second RemoveNode of the same name succeeded")
	}
	if len(c.NodeNames()) != 2 {
		t.Fatalf("membership after removal: %v", c.NodeNames())
	}
	if _, err := removed.openWire(context.Background(), keys[0]); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("retired node's wire error = %v, want ECONNREFUSED", err)
	}
	before := origin.count()
	for _, key := range keys {
		if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
			t.Fatalf("post-removal fetch %v: %v", key, err)
		}
	}
	if got := origin.count(); got != before {
		t.Fatalf("removing a replicated member cost %d origin refetches, want exactly 0", got-before)
	}
}

// TestAddNodeMovesOnlyReshardedKeys is the live-membership acceptance:
// growing the cluster moves exactly the keys rendezvous reshards onto
// the new member — counted precisely by per-node miss counters — and
// disturbs nothing else.
func TestAddNodeMovesOnlyReshardedKeys(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(3), WithLoopback(), WithCatalog(wireCatalog(t, v)),
		WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	keys := wireKeys(v)
	for _, key := range keys {
		if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
			t.Fatal(err)
		}
	}
	oldIDs := c.NodeNames()
	missesBefore := map[string]int64{}
	for _, n := range c.Nodes() {
		missesBefore[n.ID()] = n.Misses()
	}

	added, err := c.AddNode("")
	if err != nil {
		t.Fatal(err)
	}
	if added.ID() != "edge-3" {
		t.Fatalf("auto-assigned name %q, want edge-3", added.ID())
	}
	if _, err := c.AddNode("edge-0"); err == nil {
		t.Fatal("AddNode accepted a duplicate name")
	}
	newIDs := c.NodeNames()
	moved := 0
	for _, key := range keys {
		was, now := Rank(key, oldIDs)[0], Rank(key, newIDs)[0]
		if now != was && now != added.ID() {
			t.Fatalf("key %v moved %s→%s; only the new node may steal keys", key, was, now)
		}
		if now == added.ID() {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key resharded onto the new node; the test asserts nothing")
	}

	for _, key := range keys {
		if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
			t.Fatalf("post-add fetch %v: %v", key, err)
		}
	}
	if got := added.Misses(); got != int64(moved) {
		t.Fatalf("new node pulled %d keys from the origin, rendezvous resharded exactly %d", got, moved)
	}
	for _, id := range oldIDs {
		if got := c.Node(id).Misses(); got != missesBefore[id] {
			t.Fatalf("unmoved member %s refetched %d keys from the origin", id, got-missesBefore[id])
		}
	}
}

// TestWireClusterChaosUnderLoad hammers the over-the-wire cluster from
// many goroutines through a kill/recover cycle plus a live AddNode and
// RemoveNode, with the race detector watching. No fetch may fail: the
// worst a client sees is a reroute or an origin fallback.
func TestWireClusterChaosUnderLoad(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(4), WithReplication(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)),
		WithHealth(HealthConfig{FailThreshold: 3, ProbeSuccesses: 2,
			Cooldown: time.Millisecond, ProbeInterval: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	keys := wireKeys(v)
	const (
		workers = 8
		rounds  = 10
		dead    = "edge-1"
	)
	var failures atomic.Int64
	runRound := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(keys); i += workers {
					key := keys[i]
					if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
						failures.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	for r := 0; r < rounds; r++ {
		switch r {
		case 2:
			c.KillNode(dead)
		case 4:
			if _, err := c.AddNode(""); err != nil {
				t.Fatalf("AddNode mid-run: %v", err)
			}
		case 6:
			c.RecoverNode(dead)
			time.Sleep(5 * time.Millisecond)
			c.ProbeAll()
			c.ProbeAll()
		case 8:
			if err := c.RemoveNode("edge-2"); err != nil {
				t.Fatalf("RemoveNode mid-run: %v", err)
			}
		}
		runRound()
		c.ProbeAll()
	}
	if got := failures.Load(); got != 0 {
		t.Fatalf("%d fetches failed across the wire chaos run", got)
	}
	if got := c.met.reroutes.Value(); got == 0 {
		t.Fatal("chaos run produced no reroutes; the kill was not exercised")
	}
	if got := c.Node(dead).Requests() + c.Node(dead).Misses(); got == 0 {
		t.Fatal("recovered node never served again")
	}
}

// TestCloseRetiresWireEdges: Close stops every edge process, not just
// the warm worker. Afterwards no edge address accepts a dial and the
// goroutines the cluster started are gone, while the membership stays
// readable and removable — the way a harness tears a cluster down.
func TestCloseRetiresWireEdges(t *testing.T) {
	base := runtime.NumGoroutine()
	v := wireVideo()
	c, err := New(&countingOrigin{}, WithNodes(3), WithWire(true),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Serve a few chunks so edge connections are open at Close.
	for _, key := range wireKeys(v)[:6] {
		if rec := chunkGET(t, c.FrontDoor(), key); rec.Code != http.StatusOK {
			t.Fatalf("GET %v: status %d", key, rec.Code)
		}
	}
	var addrs []string
	for _, n := range c.Nodes() {
		addrs = append(addrs, n.Addr())
	}
	c.Close()
	c.Close() // idempotent

	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("edge %s still accepts dials after Close", addr)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(c.Nodes()); got != 3 {
		t.Fatalf("Nodes after Close = %d, want the 3 members kept", got)
	}
	for _, n := range c.Nodes() {
		n.Recover() // a retired node must stay down
		if err := c.RemoveNode(n.ID()); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("edge %s accepts dials after Recover on a closed cluster", addr)
		}
	}
}
