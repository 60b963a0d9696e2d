package media

import (
	"bytes"
	"io"
	"testing"
	"time"

	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// writerEquivCases spans the alignment edges of the block generator:
// empty, sub-word, word-boundary, word+1, one block, and a multi-block
// body larger than SyntheticBlockLen.
var writerEquivCases = []int{0, 1, 7, 8, 9, SyntheticBlockLen - 1, SyntheticBlockLen, SyntheticBlockLen + 1, 109_000}

func equivHeader() SegmentHeader {
	return SegmentHeader{
		VideoID:  "writer-equiv",
		Quality:  4,
		Flags:    FlagLive,
		Tile:     9,
		Start:    6 * time.Second,
		Duration: 2 * time.Second,
	}
}

// TestWriteSyntheticSegmentEquivalence pins the single-source-of-truth
// claim of the writer-first refactor: the streaming form, the
// appending form and the payload-slice form emit byte-identical
// segments at every size class, and the result round-trips through
// ReadSegment.
func TestWriteSyntheticSegmentEquivalence(t *testing.T) {
	h := equivHeader()
	for _, n := range writerEquivCases {
		var streamed bytes.Buffer
		if err := WriteSyntheticSegment(&streamed, h, 77, n); err != nil {
			t.Fatalf("n=%d: WriteSyntheticSegment: %v", n, err)
		}
		appended, err := AppendSyntheticSegment(nil, h, 77, n)
		if err != nil {
			t.Fatalf("n=%d: AppendSyntheticSegment: %v", n, err)
		}
		materialized, err := AppendSegment(nil, h, SyntheticPayload(77, n))
		if err != nil {
			t.Fatalf("n=%d: AppendSegment: %v", n, err)
		}
		if !bytes.Equal(streamed.Bytes(), appended) {
			t.Fatalf("n=%d: streamed differs from appended", n)
		}
		if !bytes.Equal(streamed.Bytes(), materialized) {
			t.Fatalf("n=%d: streamed differs from AppendSegment(SyntheticPayload)", n)
		}
		got, payload, err := ReadSegment(bytes.NewReader(streamed.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: streamed segment does not round-trip: %v", n, err)
		}
		if got != h || len(payload) != n {
			t.Fatalf("n=%d: round-trip header/payload mismatch", n)
		}
	}
}

// FuzzSyntheticSegmentForms drives the three synthesis forms with
// arbitrary headers, seeds and sizes: they must agree byte-for-byte or
// all reject the input.
func FuzzSyntheticSegmentForms(f *testing.F) {
	f.Add(uint64(42), 1000, uint8(3), uint16(17))
	f.Add(uint64(0), 0, uint8(0), uint16(0))
	f.Add(uint64(1<<40), SyntheticBlockLen+5, uint8(255), uint16(65535))
	f.Fuzz(func(t *testing.T, seed uint64, n int, q uint8, tile uint16) {
		if n < 0 || n > 1<<17 {
			return
		}
		h := SegmentHeader{
			VideoID:  "fuzz",
			Quality:  int(q),
			Tile:     tiling.TileID(tile),
			Start:    time.Duration(seed%1000) * time.Millisecond,
			Duration: 2 * time.Second,
		}
		var streamed bytes.Buffer
		werr := WriteSyntheticSegment(&streamed, h, seed, n)
		appended, aerr := AppendSyntheticSegment(nil, h, seed, n)
		if (werr == nil) != (aerr == nil) {
			t.Fatalf("forms disagree on validity: write=%v append=%v", werr, aerr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(streamed.Bytes(), appended) {
			t.Fatal("streamed differs from appended")
		}
		materialized, merr := AppendSegment(nil, h, SyntheticPayload(seed, n))
		if merr != nil {
			t.Fatalf("AppendSegment rejected what the synthetic forms accepted: %v", merr)
		}
		if !bytes.Equal(streamed.Bytes(), materialized) {
			t.Fatal("streamed differs from AppendSegment(SyntheticPayload)")
		}
		onePass := &spareWriter{buf: make([]byte, 0, SegmentLen(h.VideoID, n))}
		if err := WriteSyntheticSegment(onePass, h, seed, n); err != nil {
			t.Fatalf("one-pass form rejected what the other forms accepted: %v", err)
		}
		if !bytes.Equal(streamed.Bytes(), onePass.buf) || onePass.writes != 1 {
			t.Fatalf("one-pass form differs from streamed (%d writes)", onePass.writes)
		}
	})
}

// spareWriter is a buffer destination: it lends its spare capacity
// through AvailableBuffer and counts Write calls, so a test can tell
// the one-pass form (a single Write of the whole segment) from the
// streaming one.
type spareWriter struct {
	buf    []byte
	writes int
}

func (w *spareWriter) AvailableBuffer() []byte { return w.buf[len(w.buf):] }

func (w *spareWriter) Write(p []byte) (int, error) {
	w.writes++
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// TestWriteSyntheticSegmentBufferDestination pins which form a writer
// gets: one with room for the whole segment in its AvailableBuffer is
// handed the finished segment in one Write; one with a byte too little
// gets the streamed form (header, then one Write per block). Both
// emit the same bytes.
func TestWriteSyntheticSegmentBufferDestination(t *testing.T) {
	h := equivHeader()
	const n = 2*SyntheticBlockLen + 5
	want, err := AppendSyntheticSegment(nil, h, 9, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spare, writes int
	}{
		{len(want), 1},
		{len(want) - 1, 1 + 3},
	} {
		w := &spareWriter{buf: make([]byte, 0, c.spare)}
		if err := WriteSyntheticSegment(w, h, 9, n); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.buf, want) {
			t.Fatalf("spare %d: bytes differ from AppendSyntheticSegment", c.spare)
		}
		if w.writes != c.writes {
			t.Fatalf("spare %d: %d writes, want %d", c.spare, w.writes, c.writes)
		}
	}
}

// TestWriteSyntheticSegmentZeroAlloc pins the streaming path's scratch
// budget: once the block pool is warm, streaming a multi-block body
// allocates nothing at all.
func TestWriteSyntheticSegmentZeroAlloc(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	h := equivHeader()
	const n = 3*SyntheticBlockLen + 13
	if err := WriteSyntheticSegment(io.Discard, h, 5, n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteSyntheticSegment(io.Discard, h, 5, n); err != nil {
			t.Fatal(err)
		}
	})
	// A GC mid-measurement can empty the block pool and force a one-off
	// refill; a real per-op allocation would read >= 1.
	if allocs >= 1 {
		t.Fatalf("WriteSyntheticSegment: %v allocs/op, want 0 per op", allocs)
	}
}

// TestSegmentTimeBoundsRejected: Start and Duration travel as uint32
// milliseconds; values that would silently wrap (negative or past
// ~49.7 days) must be rejected by every encoder entry point, so no
// writer can emit a header that fails to round-trip through
// ReadSegment.
func TestSegmentTimeBoundsRejected(t *testing.T) {
	bad := []SegmentHeader{
		{VideoID: "x", Duration: -time.Second},
		{VideoID: "x", Start: -time.Millisecond},
		{VideoID: "x", Start: MaxSegmentTime + time.Millisecond},
		{VideoID: "x", Duration: MaxSegmentTime + time.Millisecond},
	}
	for i, h := range bad {
		if err := WriteSegment(io.Discard, h, nil); err == nil {
			t.Errorf("case %d: WriteSegment accepted out-of-range time", i)
		}
		if _, err := AppendSegment(nil, h, nil); err == nil {
			t.Errorf("case %d: AppendSegment accepted out-of-range time", i)
		}
		if err := WriteSyntheticSegment(io.Discard, h, 1, 8); err == nil {
			t.Errorf("case %d: WriteSyntheticSegment accepted out-of-range time", i)
		}
		if _, err := AppendSyntheticSegment(nil, h, 1, 8); err == nil {
			t.Errorf("case %d: AppendSyntheticSegment accepted out-of-range time", i)
		}
	}

	// The boundary itself is representable and must round-trip exactly.
	h := SegmentHeader{VideoID: "x", Start: MaxSegmentTime, Duration: MaxSegmentTime}
	var buf bytes.Buffer
	if err := WriteSegment(&buf, h, []byte("p")); err != nil {
		t.Fatalf("max segment time rejected: %v", err)
	}
	got, _, err := ReadSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != MaxSegmentTime || got.Duration != MaxSegmentTime {
		t.Fatalf("boundary did not round-trip: %+v", got)
	}
}
