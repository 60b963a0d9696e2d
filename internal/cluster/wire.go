package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"syscall"

	"sperke/internal/dash"
	"sperke/internal/serve"
)

// proxyBlock is the copy-block size the router streams proxied bodies
// through. 32 KiB matches io.Copy's internal default; pooling it keeps
// the streaming path's per-request allocations flat.
const proxyBlock = 32 << 10

// streamFront is the front door's chunk store in the wire forms:
// dash.ChunkSource for the materialized path plus dash.ChunkStreamer,
// so the dash.Server serves chunk bodies by proxying the winning
// edge's response straight into the caller's ResponseWriter. The
// in-process form deliberately does not expose the streamer — its
// front door keeps the legacy materialized behavior.
type streamFront struct{ c *Cluster }

func (f streamFront) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	return f.c.Chunk(ctx, videoID, quality, tile, index, layer)
}

// StreamChunk implements dash.ChunkStreamer.
func (f streamFront) StreamChunk(ctx context.Context, w http.ResponseWriter, videoID string, quality, tile, index int, layer bool) (int64, error) {
	return f.c.streamChunk(ctx, w, videoID, quality, tile, index, layer)
}

// streamChunk is the wire router's serve path: rank the key's edges,
// open the first live one as a stream, and relay body bytes into the
// caller's ResponseWriter through a pooled copy block — the router
// never holds a whole chunk body unless replication or coalescing
// needs one teed on the way past. Failover before the first body byte
// behaves exactly like the materialized walk (next edge, shed breaks
// to origin); a failure mid-body is unrecoverable — bytes are already
// on the wire — so it feeds the detector and aborts the response.
// With coalescing on, a request arriving while the same key is in
// flight is served from the flight's body — teed from the edge, or
// fetched from the origin — instead of walking.
func (c *Cluster) streamChunk(ctx context.Context, w http.ResponseWriter, videoID string, quality, tile, index int, layer bool) (int64, error) {
	c.met.requests.Inc()
	defer c.updateOffload()
	key := serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}
	f, role := c.coal.enter(key)
	if role == roleFollow {
		body, err := c.awaitLeader(ctx, f)
		if err != nil {
			return 0, err
		}
		if body != nil {
			return writeBody(w, body)
		}
		role = roleBypass
	}
	if role == roleBypass {
		n, _, err := c.walkStream(ctx, w, key, nil)
		return n, err
	}
	var body []byte
	defer func() { c.coal.finish(key, f, body) }()
	n, body, err := c.walkStream(ctx, w, key, f)
	return n, err
}

// writeBody serves a whole body with its Content-Length declared.
func writeBody(w http.ResponseWriter, body []byte) (int64, error) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	n, err := w.Write(body)
	return int64(n), err
}

// walkStream is the streaming ranked walk. When the caller is a
// coalescing flight leader (fl != nil) an edge's body is teed on the
// way past and returned for publication to the flight's followers;
// otherwise the body slice is nil unless replication needed it. The
// origin fallback always returns its body.
func (c *Cluster) walkStream(ctx context.Context, w http.ResponseWriter, key serve.ChunkKey, fl *routeFlight) (int64, []byte, error) {
	m := c.mem.Load()
	ranked := Rank(key, m.ids)
	owners := ranked[:min(c.cfg.replication, len(ranked))]
	for rank, id := range ranked {
		if !c.health.allow(id) {
			continue
		}
		st, err := m.byID[id].openWire(ctx, key)
		if err != nil {
			if ctx.Err() != nil {
				// The caller left; don't punish the node for it.
				return 0, nil, err
			}
			if isShed(err) {
				c.met.sheds.Inc()
				break
			}
			c.health.observe(id, err)
			continue
		}
		targets := c.warmTargets(m, owners, id, key)
		written, body, err := c.proxyBody(w, st, targets, key, fl)
		if err != nil {
			c.health.observe(id, err)
			return written, nil, err
		}
		c.health.observe(id, nil)
		if rank > 0 {
			c.met.reroutes.Inc()
		}
		c.enqueuePrewarms(key)
		return written, body, nil
	}
	body, err := c.fetchOrigin(ctx, key)
	if err != nil {
		return 0, nil, err
	}
	n, err := writeBody(w, body)
	return n, body, err
}

// bodySink accumulates a teed body into a pre-sized buffer: the
// replication copy built on the way past, not router scratch.
type bodySink struct{ buf []byte }

func (b *bodySink) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// proxyBody forwards an opened edge response into the caller's
// ResponseWriter with Content-Length preserved, streaming through a
// pooled copy block. The body tees into one exact-size buffer on the
// way past only when someone needs it whole: the key has other live
// cold owners (the buffer is queued as their replication write) or
// coalesced followers are attached to the leader's flight (the buffer
// is published as their response). A leader with neither commits the
// flight to the no-tee form first, so the warm-cache fast path stays
// allocation-flat. A drained stream shorter or longer than the edge's
// declared Content-Length is a wire fault: the response is already
// ruined for the caller, so it returns a typed transient error that
// feeds the failure detector instead of posing as a success.
func (c *Cluster) proxyBody(w http.ResponseWriter, st dash.ChunkStream, targets []*Node, key serve.ChunkKey, fl *routeFlight) (int64, []byte, error) {
	defer st.Body.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	if st.Length >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(st.Length, 10))
	}
	dst := io.Writer(w)
	var warm *bodySink
	if st.Length >= 0 {
		tee := len(targets) > 0
		if !tee && fl != nil && !c.coal.tryNoTee(fl) {
			// Followers are already waiting on this flight; tee for them.
			tee = true
		}
		if tee {
			warm = &bodySink{buf: make([]byte, 0, st.Length)}
			dst = io.MultiWriter(w, warm)
		}
	}
	block := c.copyBufs.Get()
	n, err := io.CopyBuffer(dst, st.Body, (*block)[:cap(*block)])
	c.copyBufs.Put(block)
	if err != nil {
		return n, nil, err
	}
	if st.Length >= 0 && n != st.Length {
		return n, nil, &dash.Error{
			Op: key.String(), Kind: dash.KindTransient,
			Err: fmt.Errorf("cluster: edge body length mismatch: copied %d of %d declared bytes", n, st.Length),
		}
	}
	if warm == nil {
		return n, nil, nil
	}
	if len(targets) > 0 {
		c.enqueueWarm(warmJob{key: key, body: warm.buf, targets: targets})
	}
	return n, warm.buf, nil
}

// fetchWire serves the materialized ChunkSource contract over the
// wire: open the edge's stream and drain it into one exact-size
// buffer. Only the front door's []byte path pays this; the streaming
// path (streamChunk) never builds the slice. A drained body that
// disagrees with the edge's declared Content-Length is a wire fault —
// handing short bytes to the caller (or worse, a replica's cache)
// would launder a truncation into a valid-looking chunk — so it fails
// with a typed transient error and lets the ranked walk move on.
func (c *Cluster) fetchWire(ctx context.Context, n *Node, key serve.ChunkKey) ([]byte, error) {
	st, err := n.openWire(ctx, key)
	if err != nil {
		return nil, err
	}
	defer st.Body.Close()
	sink := &bodySink{}
	if st.Length >= 0 {
		sink.buf = make([]byte, 0, st.Length)
	}
	if _, err := io.Copy(sink, st.Body); err != nil {
		return nil, err
	}
	if st.Length >= 0 && int64(len(sink.buf)) != st.Length {
		return nil, &dash.Error{
			Op: key.String(), Kind: dash.KindTransient,
			Err: fmt.Errorf("cluster: edge body length mismatch: drained %d of %d declared bytes", len(sink.buf), st.Length),
		}
	}
	return sink.buf, nil
}

// LoopbackTransport is the in-process wire: an http.RoundTripper that
// dispatches requests addressed to cluster nodes straight into each
// node's dash.Server, preserving streaming semantics — the response
// body is a pipe fed by the handler's goroutine, so bytes reach the
// reader as the handler writes them, with no sockets or materialized
// bodies. A request to a killed (or deregistered) node fails the dial
// the way a closed listener does: ECONNREFUSED. Deterministic wire
// tests and benchmarks ride it; WithWire(true) uses real listeners
// instead.
type LoopbackTransport struct {
	mu    sync.RWMutex
	hosts map[string]*Node
}

// NewLoopbackTransport returns an empty transport; cluster nodes
// register themselves as they start.
func NewLoopbackTransport() *LoopbackTransport {
	return &LoopbackTransport{hosts: make(map[string]*Node)}
}

func (t *LoopbackTransport) register(host string, n *Node) {
	t.mu.Lock()
	t.hosts[host] = n
	t.mu.Unlock()
}

func (t *LoopbackTransport) deregister(host string) {
	t.mu.Lock()
	delete(t.hosts, host)
	t.mu.Unlock()
}

// RoundTrip implements http.RoundTripper. It returns as soon as the
// handler commits response headers — the same moment a real client
// would see them — while the body keeps streaming through the pipe.
func (t *LoopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.RLock()
	n := t.hosts[req.URL.Host]
	t.mu.RUnlock()
	if n == nil || !n.accepting.Load() {
		return nil, fmt.Errorf("cluster: dial %s: %w", req.URL.Host, syscall.ECONNREFUSED)
	}
	pr, pw := io.Pipe()
	lw := &loopbackWriter{header: make(http.Header, 4), pw: pw, ready: make(chan struct{})}
	go func() {
		n.server.ServeHTTP(lw, req)
		lw.finish()
		pw.Close()
	}()
	<-lw.ready
	cl := int64(-1)
	if v := lw.header.Get("Content-Length"); v != "" {
		if parsed, perr := strconv.ParseInt(v, 10, 64); perr == nil {
			cl = parsed
		}
	}
	return &http.Response{
		Status:        http.StatusText(lw.status),
		StatusCode:    lw.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        lw.header,
		Body:          pr,
		ContentLength: cl,
		Request:       req,
	}, nil
}

// loopbackWriter adapts a node handler's response onto a pipe,
// releasing the round-trip at WriteHeader time. The header map must
// not be mutated after the first write — true of the dash handlers,
// as of any handler correct over a real connection.
type loopbackWriter struct {
	header      http.Header
	status      int
	wroteHeader bool
	pw          *io.PipeWriter
	ready       chan struct{}
	readyOnce   sync.Once
}

func (w *loopbackWriter) Header() http.Header { return w.header }

func (w *loopbackWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.status = status
	w.readyOnce.Do(func() { close(w.ready) })
}

func (w *loopbackWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	return w.pw.Write(p)
}

// finish covers handlers that return without writing anything, so the
// round-trip always completes.
func (w *loopbackWriter) finish() {
	w.WriteHeader(http.StatusOK)
}
