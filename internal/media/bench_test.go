package media

import (
	"bytes"
	"io"
	"testing"
	"time"

	"sperke/internal/tiling"
)

func BenchmarkChunkBytes(b *testing.B) {
	v := testVideo(EncodingAVC)
	for i := 0; i < b.N; i++ {
		v.ChunkBytes(3, tiling.TileID(i%24), time.Duration(i%30)*2*time.Second)
	}
}

func BenchmarkSegmentWrite(b *testing.B) {
	h := SegmentHeader{VideoID: "bench", Quality: 3, Tile: 7, Start: 4 * time.Second, Duration: 2 * time.Second}
	payload := SyntheticPayload(1, 64<<10)
	b.SetBytes(int64(SegmentLen(h.VideoID, len(payload))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WriteSegment(io.Discard, h, payload)
	}
}

func BenchmarkSegmentDecode(b *testing.B) {
	h := SegmentHeader{VideoID: "bench", Quality: 3, Tile: 7}
	data, err := AppendSegment(nil, h, SyntheticPayload(1, 64<<10))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeSegment(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentRead(b *testing.B) {
	h := SegmentHeader{VideoID: "bench", Quality: 3, Tile: 7}
	payload := SyntheticPayload(1, 64<<10)
	var buf bytes.Buffer
	WriteSegment(&buf, h, payload)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadSegment(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticSegment compares the two synthesis forms on a
// bench-sized chunk: "stream" is the two-pass form a plain writer gets,
// "append" the one-pass form a buffer destination gets.
func BenchmarkSyntheticSegment(b *testing.B) {
	h := SegmentHeader{VideoID: "bench", Quality: 3, Tile: 7, Start: 4 * time.Second, Duration: 2 * time.Second}
	const n = 108_000
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(SegmentLen(h.VideoID, n)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteSyntheticSegment(io.Discard, h, uint64(i), n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, SegmentLen(h.VideoID, n))
		b.SetBytes(int64(SegmentLen(h.VideoID, n)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AppendSyntheticSegment(buf[:0], h, uint64(i), n); err != nil {
				b.Fatal(err)
			}
		}
	})
}
