package dash

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"sperke/internal/media"
	"sperke/internal/obs"
)

// bodyServer serves one fixed chunk body at every path over 127.0.0.1,
// declaring its Content-Length.
func bodyServer(t *testing.T, body []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func demoBody(t *testing.T, q, tile, idx int) []byte {
	t.Helper()
	body, err := BuildChunkBody(testVideo(), q, tile, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestClientRejectsTrailingBytes: a body longer than the segment it
// carries is a bad body, refetched like a truncated or corrupt one.
// Before the client decoded bodies in place, it decoded them through
// a reader that stopped at the segment's end: the 7 extra bytes were
// silently accepted and counted into WireBytes.
func TestClientRejectsTrailingBytes(t *testing.T) {
	body := demoBody(t, 1, 2, 3)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := body
		if n.Add(1) == 1 {
			out = append(append([]byte(nil), body...), "padding"...)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.Write(out)
	}))
	defer srv.Close()
	res, err := fastClient(srv.URL, nil).FetchChunk(context.Background(), "demo", 1, 2, 3)
	if err != nil {
		t.Fatalf("fetch with one padded body failed: %v", err)
	}
	if res.Attempts != 2 || res.WireBytes != int64(len(body)) {
		t.Fatalf("Attempts = %d, WireBytes = %d; want 2 attempts and %d bytes", res.Attempts, res.WireBytes, len(body))
	}

	// A server that always pads exhausts the budget as a transient
	// failure, exactly as a persistently truncated body does.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(append(append([]byte(nil), body...), "padding"...))
	}))
	defer always.Close()
	_, err = fastClient(always.URL, nil).FetchChunk(context.Background(), "demo", 1, 2, 3)
	var derr *Error
	if !errors.As(err, &derr) || derr.Kind != KindTransient || derr.Attempts != 4 || !errors.Is(err, media.ErrTrailingBytes) {
		t.Fatalf("err = %v, want a transient ErrTrailingBytes after 4 attempts", err)
	}
}

// TestClientRefusesOversizedContentLength: a declared length past the
// largest legal segment fails at once, as a fatal error, without the
// client allocating the declared size or reading what the server sends.
func TestClientRefusesOversizedContentLength(t *testing.T) {
	sent := make([]byte, 1<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(media.MaxSegmentLen+1))
		w.Write(sent) // fails once the client hangs up; nothing to do
	}))
	defer srv.Close()
	c := fastClient(srv.URL, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	runtime.ReadMemStats(&after)
	var derr *Error
	if !errors.As(err, &derr) || derr.Kind != KindFatal || derr.Attempts != 1 {
		t.Fatalf("err = %v, want one fatal attempt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(sent)) {
		t.Fatalf("refusing the body allocated %d bytes; the server sent %d and declared %d", got, len(sent), media.MaxSegmentLen+1)
	}
}

// lengthRecorder records the Content-Length of every response it
// relays.
type lengthRecorder struct {
	next    http.RoundTripper
	lengths []int64
}

func (l *lengthRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.next.RoundTrip(req)
	if err == nil {
		l.lengths = append(l.lengths, resp.ContentLength)
	}
	return resp, err
}

// TestClientDecodesChunkedBody: a body sent without a Content-Length
// (chunked transfer coding) still reads in full and decodes.
func TestClientDecodesChunkedBody(t *testing.T) {
	body := demoBody(t, 3, 4, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush() // headers go out with no length
		w.Write(body[len(body)/2:])
	}))
	defer srv.Close()
	rec := &lengthRecorder{next: http.DefaultTransport}
	res, err := NewClient(srv.URL, WithTransport(rec)).FetchChunk(context.Background(), "demo", 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.lengths) != 1 || rec.lengths[0] != -1 {
		t.Fatalf("response lengths %v, want one undeclared (-1)", rec.lengths)
	}
	if res.WireBytes != int64(len(body)) || res.Header.Quality != 3 || res.Header.Tile != 4 {
		t.Fatalf("decoded %+v from %d bytes, want q3 tile 4 from %d", res.Header, res.WireBytes, len(body))
	}
}

// TestClientReusesConnection: reading exactly Content-Length bytes
// must still observe the body's EOF, or the transport never returns
// the connection to its idle pool — 50 sequential fetches would then
// dial 50 times.
func TestClientReusesConnection(t *testing.T) {
	srv, _ := testServer(t)
	var dials atomic.Int64
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return d.DialContext(ctx, network, addr)
	}}
	defer tr.CloseIdleConnections()
	c := NewClient(srv.URL, WithTransport(tr))
	for i := 0; i < 50; i++ {
		if _, err := c.FetchChunk(context.Background(), "demo", i%3, i%4, i%10); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("50 sequential fetches dialed %d times, want 1", got)
	}
}

// TestClientKnownLengthReadsBodyOnce pins the read's allocation: with a
// declared Content-Length the body lands in one exact-size buffer, so a
// whole fetch — request, both ends of the loopback exchange, decode —
// allocates at least the body once and less than half a body more. A
// buffer grown by doubling allocates about twice the body.
func TestClientKnownLengthReadsBodyOnce(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race mode perturbs allocation accounting")
	}
	body := demoBody(t, 5, 0, 0)
	srv := bodyServer(t, body)
	c := NewClient(srv.URL)
	fetch := func() {
		if _, err := c.FetchChunk(context.Background(), "demo", 5, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	fetch() // dial and warm the pools outside the measurement
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fetch()
	}
	runtime.ReadMemStats(&after)
	perFetch := (after.TotalAlloc - before.TotalAlloc) / runs
	if perFetch < uint64(len(body)) || perFetch >= uint64(len(body)+len(body)/2) {
		t.Fatalf("a fetch of a %d-byte body allocated %d bytes, want one body-sized allocation", len(body), perFetch)
	}
}
