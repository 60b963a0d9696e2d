package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/serve"
	"sperke/internal/sim"
)

// blockingOrigin blocks synthesis of one key until released, signaling
// each blocked arrival, and counts every call. The herd tests use it
// to hold a flight open while followers pile on.
type blockingOrigin struct {
	mu       sync.Mutex
	calls    int
	block    serve.ChunkKey
	arrived  chan struct{} // one buffered send per blocked call
	release  chan struct{}
	honorCtx bool
}

func newBlockingOrigin(block serve.ChunkKey) *blockingOrigin {
	return &blockingOrigin{
		block:   block,
		arrived: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (o *blockingOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	key := serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}
	o.mu.Lock()
	o.calls++
	o.mu.Unlock()
	if key == o.block {
		o.arrived <- struct{}{}
		if o.honorCtx {
			select {
			case <-o.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else {
			<-o.release
		}
	}
	return originBody(key), nil
}

func (o *blockingOrigin) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls
}

// waitForFollowers polls the coalescer until n followers are attached
// to key's flight — the deterministic "everyone is waiting" barrier
// the herd tests release against.
func waitForFollowers(t *testing.T, c *Cluster, key serve.ChunkKey, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.coal.mu.Lock()
		got := 0
		if f := c.coal.flights[key]; f != nil {
			got = f.followers
		}
		c.coal.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers on %v = %d, want %d", key, got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHerdColdKeyCoalescesToOneOriginFetch is the tentpole acceptance
// on the materialized path: a seeded herd of concurrent cold requests
// for one key — against a cluster whose only edge can admit just one
// of them, so before coalescing every excess request shed straight to
// the origin — costs the origin exactly one synthesis, with every
// late arrival attached to the leader's flight. Counter equalities,
// not bounds. Run under -race in CI.
func TestHerdColdKeyCoalescesToOneOriginFetch(t *testing.T) {
	const herd = 8
	key := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0}
	origin := newBlockingOrigin(key)
	c, err := New(origin, WithNodes(1), WithMaxInFlight(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results := make(chan []byte, herd)
	errs := make(chan error, herd)
	fetch := func() {
		body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		results <- body
		errs <- err
	}
	go fetch() // the flight leader
	<-origin.arrived
	for i := 1; i < herd; i++ {
		go fetch()
	}
	waitForFollowers(t, c, key, herd-1)
	close(origin.release)
	for i := 0; i < herd; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("herd member failed: %v", err)
		}
		if body := <-results; string(body) != string(originBody(key)) {
			t.Fatalf("herd body %q, want %q", body, originBody(key))
		}
	}
	if got := origin.count(); got != 1 {
		t.Fatalf("herd of %d cost %d origin fetches, want exactly 1", herd, got)
	}
	if got := c.Coalesced(); got != herd-1 {
		t.Fatalf("cluster.coalesced = %d, want exactly %d", got, herd-1)
	}
	if got := c.met.sheds.Value(); got != 0 {
		t.Fatalf("cluster.sheds = %d, want 0 — followers must never reach the saturated edge", got)
	}
}

// TestHerdWithoutCoalescingPaysPerShed pins the pre-coalescing
// behavior the tentpole exists to fix: with the router singleflight
// disabled, every herd member past the edge's admission bound sheds
// straight to the origin, costing one synthesis each — the
// failing-before half of the regression pair.
func TestHerdWithoutCoalescingPaysPerShed(t *testing.T) {
	const herd = 5
	key := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0}
	origin := newBlockingOrigin(key)
	c, err := New(origin, WithNodes(1), WithMaxInFlight(1),
		WithCoalescing(false), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, herd)
	fetch := func() {
		_, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		errs <- err
	}
	go fetch()
	<-origin.arrived // the first request holds the only edge slot
	for i := 1; i < herd; i++ {
		go fetch()
		<-origin.arrived // each follower sheds and lands on the origin
	}
	close(origin.release)
	for i := 0; i < herd; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("herd member failed: %v", err)
		}
	}
	if got := origin.count(); got != herd {
		t.Fatalf("uncoalesced herd of %d cost %d origin fetches, want one each", herd, got)
	}
	if got := c.met.sheds.Value(); got != herd-1 {
		t.Fatalf("cluster.sheds = %d, want %d", got, herd-1)
	}
}

// TestWireHerdStreamsColdKeyOnce is the tentpole acceptance over the
// wire: concurrent cold GETs for one key through the front door — the
// leader streaming from its edge's HTTP process, the followers
// attached to the flight's teed body — produce byte-identical bodies
// with declared Content-Length and exactly one origin synthesis.
func TestWireHerdStreamsColdKeyOnce(t *testing.T) {
	const herd = 6
	v := wireVideo()
	key := serve.ChunkKey{Video: v.ID, Quality: 0, Tile: 0, Index: 0}
	origin := newBlockingOrigin(key)
	c, err := New(origin, WithNodes(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	front := c.FrontDoor()
	recs := make(chan *httptest.ResponseRecorder, herd)
	get := func() { recs <- chunkGET(t, front, key) }
	go get()
	<-origin.arrived
	for i := 1; i < herd; i++ {
		go get()
	}
	waitForFollowers(t, c, key, herd-1)
	close(origin.release)
	want := string(originBody(key))
	for i := 0; i < herd; i++ {
		rec := <-recs
		if rec.Code != http.StatusOK {
			t.Fatalf("herd GET status %d", rec.Code)
		}
		if rec.Body.String() != want {
			t.Fatalf("herd body %q, want %q", rec.Body.String(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
			t.Fatalf("Content-Length %q, want %d", cl, len(want))
		}
	}
	if got := origin.count(); got != 1 {
		t.Fatalf("wire herd of %d cost %d origin fetches, want exactly 1", herd, got)
	}
	if got := c.Coalesced(); got != herd-1 {
		t.Fatalf("cluster.coalesced = %d, want exactly %d", got, herd-1)
	}
}

// sizedBlockingOrigin adds the sized streaming pair a serve.Store
// offers (ChunkLen/ChunkTo) to a blockingOrigin; ChunkTo blocks inside
// the same synthesis Chunk does.
type sizedBlockingOrigin struct{ *blockingOrigin }

func (o sizedBlockingOrigin) ChunkLen(videoID string, quality, tile, index int, layer bool) (int, error) {
	return len(originBody(serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})), nil
}

func (o sizedBlockingOrigin) ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error) {
	body, err := o.Chunk(ctx, videoID, quality, tile, index, layer)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(body)
	return int64(n), err
}

// TestWireHerdAtOriginFallbackCoalesces: with every edge killed, a
// wire herd for one cold key lands on the origin fallback. The
// leader's fetch is published to its flight, so GETs arriving while
// the origin synthesizes attach to it instead of each paying a
// fallback of their own — also when the origin offers a sized
// streaming form. One leader plus three late GETs cost exactly one
// origin fetch.
func TestWireHerdAtOriginFallbackCoalesces(t *testing.T) {
	const late = 3
	v := wireVideo()
	key := serve.ChunkKey{Video: v.ID, Quality: 0, Tile: 0, Index: 0}
	origin := newBlockingOrigin(key)
	c, err := New(sizedBlockingOrigin{origin}, WithNodes(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, id := range c.NodeNames() {
		c.KillNode(id)
	}
	front := c.FrontDoor()
	recs := make(chan *httptest.ResponseRecorder, late+1)
	get := func() { recs <- chunkGET(t, front, key) }
	go get()
	<-origin.arrived
	for i := 0; i < late; i++ {
		go get()
	}
	// Each late GET either attaches to the leader's flight or reaches
	// the origin on a fallback of its own; release once all have.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.coal.mu.Lock()
		attached := 0
		if f := c.coal.flights[key]; f != nil {
			attached = f.followers
		}
		c.coal.mu.Unlock()
		if attached+len(origin.arrived) == late {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late GETs: %d attached, %d at the origin, want %d in total", attached, len(origin.arrived), late)
		}
		time.Sleep(time.Millisecond)
	}
	close(origin.release)
	want := string(originBody(key))
	for i := 0; i <= late; i++ {
		rec := <-recs
		if rec.Code != http.StatusOK {
			t.Fatalf("herd GET status %d", rec.Code)
		}
		if rec.Body.String() != want {
			t.Fatalf("herd body %q, want %q", rec.Body.String(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
			t.Fatalf("Content-Length %q, want %d", cl, len(want))
		}
	}
	if got := c.met.originFetches.Value(); got != 1 {
		t.Fatalf("cluster.origin_fetches = %d, want exactly 1", got)
	}
	if got := origin.count(); got != 1 {
		t.Fatalf("origin saw %d calls, want exactly 1", got)
	}
	if got := c.Coalesced(); got != late {
		t.Fatalf("cluster.coalesced = %d, want exactly %d", got, late)
	}
}

// TestCanceledLeaderDoesNotPoisonFollowers: the flight leader's caller
// cancels mid-synthesis. Followers must not inherit the cancellation —
// they fall back to their own ranked walk and still get bodies, with
// the edge-store singleflight keeping the retry to one synthesis.
func TestCanceledLeaderDoesNotPoisonFollowers(t *testing.T) {
	const followers = 3
	key := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0}
	origin := newBlockingOrigin(key)
	origin.honorCtx = true
	c, err := New(origin, WithNodes(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leadCtx, cancelLead := context.WithCancel(context.Background())
	leadErr := make(chan error, 1)
	go func() {
		_, err := c.Chunk(leadCtx, key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		leadErr <- err
	}()
	<-origin.arrived
	errs := make(chan error, followers)
	bodies := make(chan []byte, followers)
	for i := 0; i < followers; i++ {
		go func() {
			body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
			bodies <- body
			errs <- err
		}()
	}
	waitForFollowers(t, c, key, followers)
	cancelLead()
	if err := <-leadErr; err == nil {
		t.Fatal("canceled leader returned no error")
	}
	// The followers retry on their own; the retry's synthesis blocks on
	// the origin until released.
	<-origin.arrived
	close(origin.release)
	for i := 0; i < followers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("follower failed after leader cancel: %v", err)
		}
		if body := <-bodies; string(body) != string(originBody(key)) {
			t.Fatalf("follower body %q, want %q", body, originBody(key))
		}
	}
	if got := c.Coalesced(); got != 0 {
		t.Fatalf("cluster.coalesced = %d after a failed flight, want 0", got)
	}
}

// truncatingTransport answers every chunk GET with a 200 that declares
// more bytes than it delivers — a server or middlebox cutting the body
// mid-stream without breaking the connection.
type truncatingTransport struct {
	declared int64
	body     string
}

func (tr *truncatingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := make(http.Header)
	h.Set("Content-Length", fmt.Sprint(tr.declared))
	return &http.Response{
		Status:        http.StatusText(http.StatusOK),
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(tr.body)),
		ContentLength: tr.declared,
		Request:       req,
	}, nil
}

// TestFetchWireRejectsTruncatedBody: a drained edge body shorter than
// the declared Content-Length must fail with a typed transient error,
// not hand short bytes to the caller (or a replica's cache) as a
// valid-looking chunk.
func TestFetchWireRejectsTruncatedBody(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(1),
		WithTransport(&truncatingTransport{declared: 100, body: "short"}),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := serve.ChunkKey{Video: v.ID, Quality: 0, Tile: 0, Index: 0}
	_, err = c.fetchWire(context.Background(), c.Node("edge-0"), key)
	var derr *dash.Error
	if !errors.As(err, &derr) {
		t.Fatalf("fetchWire on a truncated body returned %v, want *dash.Error", err)
	}
	if derr.Kind != dash.KindTransient {
		t.Fatalf("Kind = %v, want transient", derr.Kind)
	}
	if !strings.Contains(derr.Error(), "length mismatch") {
		t.Fatalf("error %q does not name the length mismatch", derr)
	}
}

// TestProxyBodyRejectsTruncatedStream is the streaming-path analog:
// the router relayed fewer bytes than the edge declared, so the
// response is ruined and must surface as a typed transient error that
// feeds the failure detector, never as a success.
func TestProxyBodyRejectsTruncatedStream(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(1),
		WithTransport(&truncatingTransport{declared: 100, body: "short"}),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := httptest.NewRecorder()
	_, err = c.streamChunk(context.Background(), rec, v.ID, 0, 0, 0, false)
	var derr *dash.Error
	if !errors.As(err, &derr) || derr.Kind != dash.KindTransient {
		t.Fatalf("streamChunk on a truncated edge stream returned %v, want transient *dash.Error", err)
	}
	if !strings.Contains(derr.Error(), "length mismatch") {
		t.Fatalf("error %q does not name the length mismatch", derr)
	}
}

// failingOrigin errors every synthesis.
type failingOrigin struct{}

func (o *failingOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	return nil, errors.New("origin storage offline")
}

// TestStreamOriginFetchCountsOnSuccessOnly is the accounting
// regression for the wire fallback: a failed origin fetch used to
// increment cluster.origin_fetches before the fallback ran, skewing
// the offload ratio and the E23 equalities. Failures must land under
// cluster.origin_errors; only completed fetches count.
func TestStreamOriginFetchCountsOnSuccessOnly(t *testing.T) {
	v := wireVideo()
	c, err := New(&failingOrigin{}, WithNodes(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, id := range c.NodeNames() {
		c.KillNode(id)
	}
	rec := chunkGET(t, c.FrontDoor(), serve.ChunkKey{Video: v.ID})
	if rec.Code == http.StatusOK {
		t.Fatalf("GET with a dead origin returned %d", rec.Code)
	}
	if got := c.met.originFallbacks.Value(); got != 1 {
		t.Fatalf("origin_fallbacks = %d, want 1", got)
	}
	if got := c.met.originFetches.Value(); got != 0 {
		t.Fatalf("origin_fetches = %d after a failed stream, want 0", got)
	}
	if got := c.met.originErrors.Value(); got != 1 {
		t.Fatalf("origin_errors = %d, want 1", got)
	}
	if req, fetches := c.OffloadCounts(); req != 1 || fetches != 0 {
		t.Fatalf("OffloadCounts = (%d, %d), want (1, 0)", req, fetches)
	}
}

// TestStreamOriginFetchCountedOnSuccess is the passing half: a
// completed fallback stream counts exactly once.
func TestStreamOriginFetchCountedOnSuccess(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, id := range c.NodeNames() {
		c.KillNode(id)
	}
	key := serve.ChunkKey{Video: v.ID}
	rec := chunkGET(t, c.FrontDoor(), key)
	if rec.Code != http.StatusOK {
		t.Fatalf("fallback GET status %d", rec.Code)
	}
	if rec.Body.String() != string(originBody(key)) {
		t.Fatalf("fallback body %q, want %q", rec.Body.String(), originBody(key))
	}
	if got := c.met.originFetches.Value(); got != 1 {
		t.Fatalf("origin_fetches = %d, want 1", got)
	}
	if got := c.met.originErrors.Value(); got != 0 {
		t.Fatalf("origin_errors = %d, want 0", got)
	}
}

// TestChunkOriginFallbackCountsOnSuccessOnly covers the materialized
// path's fallback accounting the same way.
func TestChunkOriginFallbackCountsOnSuccessOnly(t *testing.T) {
	c, err := New(&failingOrigin{}, WithNodes(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.KillNode("edge-0")
	if _, err := c.Chunk(context.Background(), "vid", 0, 0, 0, false); err == nil {
		t.Fatal("Chunk with a dead origin succeeded")
	}
	if got := c.met.originFetches.Value(); got != 0 {
		t.Fatalf("origin_fetches = %d after a failed fallback, want 0", got)
	}
	if got := c.met.originErrors.Value(); got != 1 {
		t.Fatalf("origin_errors = %d, want 1", got)
	}
}
