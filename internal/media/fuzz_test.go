package media

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"sperke/internal/tiling"
)

// segmentCorpus is the seed corpus both decoder fuzz targets share: the
// encoded forms FuzzReadSegment has always been seeded with, plus
// padded and truncated variants of the first.
func segmentCorpus(f *testing.F) [][]byte {
	var out [][]byte
	for i, payloadLen := range []int{0, 1, 100, 4096} {
		h := SegmentHeader{VideoID: "seed", Quality: i, Tile: tiling.TileID(i), Flags: uint8(i)}
		var buf bytes.Buffer
		if err := WriteSegment(&buf, h, SyntheticPayload(uint64(i), payloadLen)); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	out = append(out, []byte("SPRK"), []byte{})
	return out
}

// FuzzReadSegment hardens the segment decoders against arbitrary wire
// bytes: neither may panic, a segment DecodeSegment accepts must
// re-encode to exactly the whole input, and ReadSegment must read that
// same segment and stop at the end of it. Whatever ReadSegment accepts
// re-encodes to the bytes it consumed, and when it left bytes behind,
// DecodeSegment rejected the whole input as padded.
func FuzzReadSegment(f *testing.F) {
	for _, seed := range segmentCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rh, rpayload, rerr := ReadSegment(r)
		h, payload, err := DecodeSegment(data)
		if err == nil {
			var buf bytes.Buffer
			if err := WriteSegment(&buf, h, payload); err != nil {
				t.Fatalf("decoded segment does not re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatal("re-encoded segment differs from the whole input")
			}
			if rerr != nil || rh != h || !bytes.Equal(rpayload, payload) || r.Len() != 0 {
				t.Fatalf("ReadSegment disagrees with DecodeSegment: err=%v, %d bytes left", rerr, r.Len())
			}
			return
		}
		if rerr != nil {
			return
		}
		consumed := len(data) - r.Len()
		var buf bytes.Buffer
		if err := WriteSegment(&buf, rh, rpayload); err != nil {
			t.Fatalf("read segment does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatal("re-encoded segment differs from the bytes ReadSegment consumed")
		}
		if consumed == len(data) || !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("ReadSegment accepted %d of %d bytes but DecodeSegment failed with %v", consumed, len(data), err)
		}
	})
}

// FuzzDecodeSegment checks the in-place decoder against the streaming
// decoder it replaced on the delivery path (legacyReadSegment, kept
// here verbatim as the reference): on every input the reference
// accepts by consuming the whole buffer, DecodeSegment must return the
// same header and payload; on every other input — rejected, or
// accepted with bytes left over — DecodeSegment must reject.
func FuzzDecodeSegment(f *testing.F) {
	for _, seed := range segmentCorpus(f) {
		f.Add(seed)
		if len(seed) > headerFixedLen {
			f.Add(append(append([]byte(nil), seed...), "padding"...))
			f.Add(seed[:len(seed)-1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		wh, wpayload, werr := legacyReadSegment(r)
		whole := werr == nil && r.Len() == 0
		h, payload, err := DecodeSegment(data)
		if whole != (err == nil) {
			t.Fatalf("reference accepted whole input: %v (err %v, %d left); DecodeSegment err: %v", whole, werr, r.Len(), err)
		}
		if whole && (h != wh || !bytes.Equal(payload, wpayload)) {
			t.Fatalf("DecodeSegment = %+v (%d-byte payload), reference = %+v (%d-byte payload)", h, len(payload), wh, len(wpayload))
		}
	})
}

// legacyReadSegment is the streaming decoder the client and the rtmp
// session used before DecodeSegment, unchanged: the differential
// reference for FuzzDecodeSegment.
func legacyReadSegment(r io.Reader) (SegmentHeader, []byte, error) {
	var h SegmentHeader
	fixed := make([]byte, headerFixedLen)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return h, nil, err
	}
	if string(fixed[:4]) != segmentMagic {
		return h, nil, ErrBadMagic
	}
	if fixed[4] != segmentVersion {
		return h, nil, fmt.Errorf("%w: %d", ErrBadVersion, fixed[4])
	}
	h.Quality = int(fixed[5])
	h.Flags = fixed[6]
	idLen := int(fixed[7])
	if idLen == 0 {
		return h, nil, fmt.Errorf("media: segment has empty video ID")
	}
	h.Tile = tiling.TileID(binary.BigEndian.Uint16(fixed[8:]))
	h.Start = time.Duration(binary.BigEndian.Uint32(fixed[10:])) * time.Millisecond
	h.Duration = time.Duration(binary.BigEndian.Uint32(fixed[14:])) * time.Millisecond
	payloadLen := binary.BigEndian.Uint32(fixed[18:])
	if payloadLen > MaxPayloadLen {
		return h, nil, fmt.Errorf("media: payload length %d exceeds max", payloadLen)
	}
	wantCRC := binary.BigEndian.Uint32(fixed[22:])
	id := make([]byte, idLen)
	if _, err := io.ReadFull(r, id); err != nil {
		return h, nil, err
	}
	h.VideoID = string(id)
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return h, nil, err
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return h, nil, ErrCorrupt
	}
	return h, payload, nil
}
