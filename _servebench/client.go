package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/serve"
)

// clientConns bounds the benchmark's load: two connections, the
// machine's core count when the workloads were sized.
const clientConns = 2

// segFixedHeader is the fixed part of the media segment header (magic,
// version, quality, flags, ID length, tile, start ms, duration ms,
// payload length, CRC) that precedes the video ID. The benchmark
// decodes it independently of package media so a change to the
// program's encoder cannot also change the oracle.
const segFixedHeader = 26

// exchanges collects what the client transport saw in one stack's
// lifetime: per-exchange times in ms (+Inf for a failed exchange) and
// the count of responses that did not match their address.
type exchanges struct {
	mu         sync.Mutex
	totalMS    []float64
	ttfbMS     []float64
	bodyMS     []float64
	busy       time.Duration
	roundtrips int64
	bad        int
	firstBad   string
	requested  map[serve.ChunkKey]struct{}
}

func (e *exchanges) add(key serve.ChunkKey, ttfb, total time.Duration, ok bool, mismatch error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.roundtrips++
	e.busy += total
	if e.requested != nil {
		e.requested[key] = struct{}{}
	}
	if mismatch != nil {
		e.bad++
		if e.firstBad == "" {
			e.firstBad = mismatch.Error()
		}
	}
	if !ok {
		e.totalMS = append(e.totalMS, math.Inf(1))
		return
	}
	e.totalMS = append(e.totalMS, ms(total))
	e.ttfbMS = append(e.ttfbMS, ms(ttfb))
	e.bodyMS = append(e.bodyMS, ms(total-ttfb))
}

// mismatched returns how many responses did not match their address,
// and a description of the first.
func (e *exchanges) mismatched() (int, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bad, e.firstBad
}

// clientTransport is the viewer client's RoundTripper: a plain
// http.Transport capped at clientConns connections, plus a check of
// every chunk response against the address it was asked for. With a
// tracer it also records a client span per exchange and sends its id
// in reqHeader.
type clientTransport struct {
	base   *http.Transport
	videos map[string]*media.Video
	tr     *tracer
	dials  atomic.Int64
	ex     exchanges
}

func newClientTransport(videos map[string]*media.Video, tr *tracer) *clientTransport {
	ct := &clientTransport{videos: videos, tr: tr}
	if tr != nil {
		ct.ex.requested = make(map[serve.ChunkKey]struct{})
	}
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	ct.base = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			ct.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		IdleConnTimeout:     90 * time.Second,
	}
	return ct
}

func (ct *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	addr, isChunk := parseChunkPath(req.URL.Path)
	if !isChunk {
		return ct.base.RoundTrip(req)
	}
	start := time.Now()
	var id uint64
	var spanStart time.Duration
	if ct.tr != nil {
		id, spanStart = ct.tr.newID(), ct.tr.now()
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	resp, err := ct.base.RoundTrip(req)
	ttfb := time.Since(start)
	b := &checkedBody{ct: ct, addr: addr, start: start, ttfb: ttfb, id: id, spanStart: spanStart}
	if err != nil {
		b.finish(false)
		return nil, err
	}
	b.rc, b.status, b.declared = resp.Body, resp.StatusCode, resp.ContentLength
	resp.Body = b
	return resp, nil
}

// checkedBody sees a chunk response's bytes go by: it keeps the
// segment header, counts the length, and at EOF checks both against
// the requested address.
type checkedBody struct {
	ct        *clientTransport
	rc        io.ReadCloser
	addr      chunkAddr
	status    int
	declared  int64
	start     time.Time
	ttfb      time.Duration
	id        uint64
	spanStart time.Duration

	n     int64
	head  [segFixedHeader + 255]byte
	headN int
	done  bool
}

func (b *checkedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if b.headN < len(b.head) {
		b.headN += copy(b.head[b.headN:], p[:n])
	}
	b.n += int64(n)
	if err == io.EOF && !b.done {
		b.finish(true)
	}
	return n, err
}

func (b *checkedBody) Close() error {
	err := b.rc.Close()
	if !b.done {
		b.finish(false)
	}
	return err
}

// finish accounts the exchange once. A 200 read to EOF is checked; a
// body closed early or a non-200 status is a failed exchange.
func (b *checkedBody) finish(eof bool) {
	b.done = true
	total := time.Since(b.start)
	ok := eof && b.status == http.StatusOK
	var mismatch error
	if ok {
		mismatch = b.check()
	}
	b.ct.ex.add(b.addr.key(), b.ttfb, total, ok, mismatch)
	if tr := b.ct.tr; tr != nil {
		tr.record(span{ID: b.id, Name: spanClient, Key: b.addr.key(),
			Start: b.spanStart, Mark: b.spanStart + b.ttfb, End: b.spanStart + total,
			Status: b.status, Bytes: b.n})
	}
}

// check verifies a complete 200 body: its length is the address's
// dash.ChunkBodyLen (and the declared Content-Length), and its segment
// header names the requested video, quality, tile and chunk start.
func (b *checkedBody) check() error {
	a := b.addr
	v, ok := b.ct.videos[a.Video]
	if !ok {
		return fmt.Errorf("%s: served a video the workload does not hold", a.path())
	}
	want, err := dash.ChunkBodyLen(v, a.Q, a.Tile, a.Idx, false)
	if err != nil {
		return fmt.Errorf("%s: served an address with no body: %v", a.path(), err)
	}
	if b.n != int64(want) || (b.declared >= 0 && b.declared != b.n) {
		return fmt.Errorf("%s: body %d bytes (declared %d), want %d", a.path(), b.n, b.declared, want)
	}
	h := b.head[:b.headN]
	idLen := int(h[7])
	if len(h) < segFixedHeader+idLen {
		return fmt.Errorf("%s: short segment header", a.path())
	}
	q, flags := int(h[5]), h[6]
	tile := int(binary.BigEndian.Uint16(h[8:]))
	startMS := int64(binary.BigEndian.Uint32(h[10:]))
	id := string(h[segFixedHeader : segFixedHeader+idLen])
	wantMS := int64(v.ChunkStart(a.Idx) / time.Millisecond)
	if id != a.Video || q != a.Q || tile != a.Tile || startMS != wantMS || flags != 0 {
		return fmt.Errorf("%s: header says video %q q%d tile %d start %dms flags %#x, want start %dms",
			a.path(), id, q, tile, startMS, flags, wantMS)
	}
	return nil
}
