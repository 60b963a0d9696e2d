package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sperke/internal/dash"
	"sperke/internal/serve"
)

// reqHeader carries the client span's id from the client transport to
// the front-door handler, so the server span can name its parent.
const reqHeader = "X-Servebench-Req"

// Span names, one per seam the benchmark wraps, plus the root that
// adopts origin calls no viewer request encloses (pre-warm).
const (
	spanClient = "client"
	spanDash   = "dash"
	spanOrigin = "origin"
	spanWarm   = "warm"
)

// span is one timed call at a layer boundary. Times are offsets from
// the tracer's epoch. Mark is the client span's response-header time;
// Status and Bytes describe a server span's response.
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent"`
	Name   string         `json:"name"`
	Key    serve.ChunkKey `json:"-"`
	Start  time.Duration  `json:"start_ns"`
	End    time.Duration  `json:"end_ns"`
	Mark   time.Duration  `json:"mark_ns,omitempty"`
	Status int            `json:"status,omitempty"`
	Bytes  int64          `json:"bytes,omitempty"`
}

// tracer keeps one round's spans in memory. Origin calls reach the
// origin on the edge store's own flight context, not the viewer's
// request, so the tracer links them by chunk key: an origin span's
// parent is the oldest front-door span of the same key still open.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	warm  uint64

	mu    sync.Mutex
	spans []span
	open  map[serve.ChunkKey][]uint64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), open: make(map[serve.ChunkKey][]uint64)}
	t.warm = t.ids.Add(1)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) openServer(key serve.ChunkKey) uint64 {
	id := t.newID()
	t.mu.Lock()
	t.open[key] = append(t.open[key], id)
	t.mu.Unlock()
	return id
}

func (t *tracer) closeServer(s span) {
	t.mu.Lock()
	ids := t.open[s.Key]
	for i, id := range ids {
		if id == s.ID {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(t.open, s.Key)
	} else {
		t.open[s.Key] = ids
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// enclosing returns the span an origin call for key belongs under.
func (t *tracer) enclosing(key serve.ChunkKey) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ids := t.open[key]; len(ids) > 0 {
		return ids[0]
	}
	return t.warm
}

// finish closes the warm root and hands back every span recorded.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append(t.spans, span{ID: t.warm, Name: spanWarm, End: t.now()})
	t.spans = nil
	return out
}

// chunkAddr is a viewer-visible chunk address (AVC chunks only; the
// workloads request no SVC layers).
type chunkAddr struct {
	Video        string
	Q, Tile, Idx int
}

func (a chunkAddr) key() serve.ChunkKey {
	return serve.ChunkKey{Video: a.Video, Quality: a.Q, Tile: a.Tile, Index: a.Idx}
}

func (a chunkAddr) path() string {
	return fmt.Sprintf("/v/%s/c/%d/%d/%d", a.Video, a.Q, a.Tile, a.Idx)
}

// parseChunkPath reads /v/{video}/c/{q}/{tile}/{idx}.
func parseChunkPath(p string) (chunkAddr, bool) {
	var a chunkAddr
	var parts [6]string
	n := 0
	for len(p) > 0 && n < len(parts) {
		if p[0] != '/' {
			return a, false
		}
		p = p[1:]
		i := 0
		for i < len(p) && p[i] != '/' {
			i++
		}
		parts[n], p = p[:i], p[i:]
		n++
	}
	if n != 6 || p != "" || parts[0] != "v" || parts[2] != "c" {
		return a, false
	}
	var err1, err2, err3 error
	a.Video = parts[1]
	a.Q, err1 = strconv.Atoi(parts[3])
	a.Tile, err2 = strconv.Atoi(parts[4])
	a.Idx, err3 = strconv.Atoi(parts[5])
	return a, err1 == nil && err2 == nil && err3 == nil
}

// tracedFront wraps the front-door handler with a server span per
// chunk request. The span's parent is the client span named by
// reqHeader.
type tracedFront struct {
	next http.Handler
	tr   *tracer
}

func (f tracedFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	addr, ok := parseChunkPath(r.URL.Path)
	if !ok {
		f.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	key := addr.key()
	start := f.tr.now()
	id := f.tr.openServer(key)
	tw := &tracedWriter{ResponseWriter: w, status: http.StatusOK}
	defer func() {
		f.tr.closeServer(span{ID: id, Parent: parent, Name: spanDash, Key: key,
			Start: start, End: f.tr.now(), Status: tw.status, Bytes: tw.n})
	}()
	f.next.ServeHTTP(tw, r)
}

// tracedWriter counts a response's status and body bytes. It passes
// http.Flusher through, as the writer it wraps offers it.
type tracedWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	n      int64
}

func (w *tracedWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *tracedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *tracedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// originSource is what the origin store offers its callers: the plain
// ChunkSource plus the sized streaming pair the cluster router looks
// for. *serve.Store implements exactly these (and no
// dash.ChunkStreamer), so a wrapper implementing exactly this set keeps
// every caller on the path it takes with the bare store.
type originSource interface {
	dash.ChunkSource
	ChunkLen(videoID string, quality, tile, index int, layer bool) (int, error)
	ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error)
}

// tracedOrigin records an origin span per body the origin hands out.
type tracedOrigin struct {
	inner originSource
	tr    *tracer
}

func (o tracedOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	key := serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}
	parent, start := o.tr.enclosing(key), o.tr.now()
	body, err := o.inner.Chunk(ctx, videoID, quality, tile, index, layer)
	o.tr.record(span{ID: o.tr.newID(), Parent: parent, Name: spanOrigin, Key: key,
		Start: start, End: o.tr.now(), Bytes: int64(len(body))})
	return body, err
}

func (o tracedOrigin) ChunkLen(videoID string, quality, tile, index int, layer bool) (int, error) {
	return o.inner.ChunkLen(videoID, quality, tile, index, layer)
}

func (o tracedOrigin) ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error) {
	key := serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}
	parent, start := o.tr.enclosing(key), o.tr.now()
	n, err := o.inner.ChunkTo(ctx, w, videoID, quality, tile, index, layer)
	o.tr.record(span{ID: o.tr.newID(), Parent: parent, Name: spanOrigin, Key: key,
		Start: start, End: o.tr.now(), Bytes: n})
	return n, err
}

// spanFile writes spans as JSON lines, one file per run.
type spanFile struct {
	f *os.File
	w *bufio.Writer
}

func createSpanFile(dir, name string) (*spanFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	return &spanFile{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

type spanLine struct {
	Round int    `json:"round"`
	Key   string `json:"key,omitempty"`
	span
}

func (sf *spanFile) write(round int, spans []span) error {
	enc := json.NewEncoder(sf.w)
	for _, s := range spans {
		line := spanLine{Round: round, span: s}
		if s.Key.Video != "" {
			line.Key = s.Key.String()
		}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

func (sf *spanFile) close() error {
	if err := sf.w.Flush(); err != nil {
		sf.f.Close()
		return fmt.Errorf("flushing spans: %w", err)
	}
	return sf.f.Close()
}

// coveredBy returns how much of [start, end) the intervals cover,
// counting overlaps once.
func coveredBy(start, end time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, start), min(k.End, end)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}
