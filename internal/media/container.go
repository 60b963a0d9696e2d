package media

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// Segment container wire format.
//
// Sperke's DASH server and live pipeline move chunks as self-describing
// binary segments so a receiver can validate and demultiplex them
// without out-of-band state:
//
//	offset size field
//	0      4    magic "SPRK"
//	4      1    container version (1)
//	5      1    quality level / SVC layer index
//	6      1    flags (bit 0: SVC layer, bit 1: live)
//	7      1    video-ID length n (1..255)
//	8      2    tile ID (big endian)
//	10     4    chunk start, milliseconds
//	14     4    chunk duration, milliseconds
//	18     4    payload length
//	22     4    CRC-32 (IEEE) of payload
//	26     n    video ID (UTF-8)
//	26+n   ...  payload
//
// All multi-byte fields are big-endian, per network convention.

// Segment flags.
const (
	// FlagSVCLayer marks the payload as one SVC layer rather than a full
	// single-layer chunk.
	FlagSVCLayer = 1 << 0
	// FlagLive marks a segment produced by a live broadcast.
	FlagLive = 1 << 1
)

const (
	segmentMagic   = "SPRK"
	segmentVersion = 1
	headerFixedLen = 26
	// Offsets of the payload-length and CRC fields in the fixed header.
	payloadLenOffset = 18
	crcOffset        = 22
	// MaxPayloadLen caps a single segment at 64 MiB — far above any
	// realistic chunk and small enough to reject corrupt length fields
	// before allocating.
	MaxPayloadLen = 64 << 20
	// MaxSegmentLen is the largest legal encoded segment: a 255-byte
	// video ID and a MaxPayloadLen payload. A body declaring more can
	// never decode, so receivers refuse it before allocating.
	MaxSegmentLen = headerFixedLen + 255 + MaxPayloadLen
	// MaxSegmentTime is the largest Start or Duration the wire format
	// can carry: both travel as uint32 milliseconds, so anything past
	// ~49.7 days would silently wrap and fail to round-trip through
	// DecodeSegment. validateSegment rejects it instead.
	MaxSegmentTime = time.Duration(math.MaxUint32) * time.Millisecond
	// SyntheticBlockLen is the generator's block: the fixed scratch a
	// streaming WriteSyntheticSegment holds regardless of payload
	// length, and the span the one-pass form folds into the CRC while
	// it is still in cache. A multiple of 8 so block boundaries stay
	// aligned with the generator's 8-byte words.
	SyntheticBlockLen = 32 << 10
)

// SegmentHeader describes one chunk (or one SVC layer of a chunk) on the
// wire.
type SegmentHeader struct {
	VideoID  string
	Quality  int // quality level, or layer index when FlagSVCLayer is set
	Flags    uint8
	Tile     tiling.TileID
	Start    time.Duration
	Duration time.Duration
}

// Errors returned by the segment codec.
var (
	ErrBadMagic   = errors.New("media: segment has bad magic")
	ErrBadVersion = errors.New("media: unsupported segment version")
	ErrCorrupt    = errors.New("media: segment payload CRC mismatch")
	// ErrTrailingBytes rejects a buffer that holds more than one
	// segment's bytes, such as a response body padded past its segment.
	ErrTrailingBytes = errors.New("media: trailing bytes after segment payload")
)

// validateSegment checks header and payload bounds shared by every
// encoder entry point.
func validateSegment(h SegmentHeader, payloadLen int) error {
	if len(h.VideoID) == 0 || len(h.VideoID) > 255 {
		return fmt.Errorf("media: video ID length %d out of range [1,255]", len(h.VideoID))
	}
	if payloadLen > MaxPayloadLen {
		return fmt.Errorf("media: payload %d exceeds max %d", payloadLen, MaxPayloadLen)
	}
	if h.Quality < 0 || h.Quality > 255 {
		return fmt.Errorf("media: quality %d out of range [0,255]", h.Quality)
	}
	if h.Tile < 0 || h.Tile > 0xffff {
		return fmt.Errorf("media: tile %d out of range", h.Tile)
	}
	if h.Start < 0 || h.Start > MaxSegmentTime {
		return fmt.Errorf("media: start %v outside [0, %v]", h.Start, MaxSegmentTime)
	}
	if h.Duration < 0 || h.Duration > MaxSegmentTime {
		return fmt.Errorf("media: duration %v outside [0, %v]", h.Duration, MaxSegmentTime)
	}
	return nil
}

// appendSegmentHeader appends the fixed header and video ID for a
// payload of payloadLen bytes with the given CRC. Callers must have
// validated h first.
func appendSegmentHeader(dst []byte, h SegmentHeader, payloadLen int, crc uint32) []byte {
	var fixed [headerFixedLen]byte
	copy(fixed[:], segmentMagic)
	fixed[4] = segmentVersion
	fixed[5] = uint8(h.Quality)
	fixed[6] = h.Flags
	fixed[7] = uint8(len(h.VideoID))
	binary.BigEndian.PutUint16(fixed[8:], uint16(h.Tile))
	binary.BigEndian.PutUint32(fixed[10:], uint32(h.Start/time.Millisecond))
	binary.BigEndian.PutUint32(fixed[14:], uint32(h.Duration/time.Millisecond))
	binary.BigEndian.PutUint32(fixed[payloadLenOffset:], uint32(payloadLen))
	binary.BigEndian.PutUint32(fixed[crcOffset:], crc)
	dst = append(dst, fixed[:]...)
	return append(dst, h.VideoID...)
}

// growCap ensures dst has room for n more bytes without changing its
// length, reallocating exactly once when it does not.
func growCap(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// WriteSegment encodes one segment to w.
func WriteSegment(w io.Writer, h SegmentHeader, payload []byte) error {
	if err := validateSegment(h, len(payload)); err != nil {
		return err
	}
	buf := appendSegmentHeader(make([]byte, 0, headerFixedLen+len(h.VideoID)),
		h, len(payload), crc32.ChecksumIEEE(payload))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendSegment appends the wire encoding of one segment to dst and
// returns the extended slice — the same bytes WriteSegment would emit.
// On error dst is returned unchanged.
func AppendSegment(dst []byte, h SegmentHeader, payload []byte) ([]byte, error) {
	if err := validateSegment(h, len(payload)); err != nil {
		return dst, err
	}
	dst = growCap(dst, SegmentLen(h.VideoID, len(payload)))
	dst = appendSegmentHeader(dst, h, len(payload), crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// blockPool recycles the fixed-size scratch blocks of the streaming
// synthesis path. Blocks are minted and kept at exactly
// SyntheticBlockLen, so the pool's resident memory is bounded by the
// number of concurrent writers, never by body sizes.
var blockPool = obs.NewSizedBufferPool(nil, "media.block", SyntheticBlockLen, SyntheticBlockLen)

// availableBuffer is the stdlib idiom (bytes.Buffer, bufio.Writer) for
// a writer that lends out its spare capacity: a caller fills
// AvailableBuffer()[:k] and then passes that slice to Write.
type availableBuffer interface {
	AvailableBuffer() []byte
}

// WriteSyntheticSegment writes a segment whose payload is
// SyntheticPayload(seed, n) to w; the bytes written are exactly
// AppendSegment(nil, h, SyntheticPayload(seed, n)).
//
// A buffer destination — w has an AvailableBuffer with room for the
// whole segment — takes the one-pass form of AppendSyntheticSegment:
// the segment is built in that spare capacity and handed to w.Write in
// one call (a destination whose Write recognizes its own spare
// capacity commits it without a copy). Any other writer is a stream
// and takes two passes of the same generator over one reused
// SyntheticBlockLen scratch block: the first learns the payload CRC
// (the CRC of a synthetic payload is computable before emission), the
// second emits the header and then regenerates the payload block by
// block straight into w. Peak scratch is the fixed block size
// regardless of n.
func WriteSyntheticSegment(w io.Writer, h SegmentHeader, seed uint64, n int) error {
	if err := validateSynthetic(h, n); err != nil {
		return err
	}
	if ab, ok := w.(availableBuffer); ok {
		if buf, total := ab.AvailableBuffer(), SegmentLen(h.VideoID, n); cap(buf) >= total {
			seg := buf[:total]
			fillSyntheticSegment(seg, h, seed, n)
			_, err := w.Write(seg)
			return err
		}
	}
	scratch := blockPool.Get()
	defer blockPool.Put(scratch)
	block := (*scratch)[:SyntheticBlockLen]

	// Pass 1: the payload CRC, one scratch block at a time.
	crc := synthCRC(block, seed, n)

	// Header (the block doubles as header scratch: 26 + ≤255 ID bytes
	// always fit).
	hdr := appendSegmentHeader(block[:0], h, n, crc)
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	// Pass 2: regenerate the payload into w.
	s := newSynthStream(seed)
	for rem := n; rem > 0; {
		k := min(rem, len(block))
		s.fill(block[:k])
		if _, err := w.Write(block[:k]); err != nil {
			return err
		}
		rem -= k
	}
	return nil
}

// AppendSyntheticSegment appends a segment whose payload is
// SyntheticPayload(seed, n) to dst and returns the extended slice,
// allocating only when dst lacks capacity. It is the one-pass form:
// the generator fills the payload in place block by block, each
// block's CRC is folded while the block is still in cache, and the
// header CRC is back-patched. On error dst is returned unchanged. The
// result is byte-identical to AppendSegment(dst, h,
// SyntheticPayload(seed, n)) and to what WriteSyntheticSegment
// streams.
func AppendSyntheticSegment(dst []byte, h SegmentHeader, seed uint64, n int) ([]byte, error) {
	if err := validateSynthetic(h, n); err != nil {
		return dst, err
	}
	total := SegmentLen(h.VideoID, n)
	dst = growCap(dst, total)
	out := dst[:len(dst)+total]
	fillSyntheticSegment(out[len(dst):], h, seed, n)
	return out, nil
}

// validateSynthetic is validateSegment plus the synthetic forms' own
// check: a payload length cannot be negative.
func validateSynthetic(h SegmentHeader, n int) error {
	if n < 0 {
		return fmt.Errorf("media: negative payload length %d", n)
	}
	return validateSegment(h, n)
}

// fillSyntheticSegment encodes a validated synthetic segment into seg,
// which is exactly SegmentLen(h.VideoID, n) bytes: one generator pass
// over the payload bytes, then the CRC back-patched into the header.
func fillSyntheticSegment(seg []byte, h SegmentHeader, seed uint64, n int) {
	hdr := appendSegmentHeader(seg[:0], h, n, 0)
	crc := synthCRC(seg[len(hdr):], seed, n)
	binary.BigEndian.PutUint32(seg[crcOffset:], crc)
}

// synthCRC runs the generator over the n-byte payload of seed one
// SyntheticBlockLen block at a time and returns the payload's CRC-32,
// folding each block while it is still in cache. With len(dst) >= n the
// payload lands in dst[:n]; otherwise dst is one scratch block that
// every block overwrites in turn (the stream form's CRC pass).
func synthCRC(dst []byte, seed uint64, n int) uint32 {
	s := newSynthStream(seed)
	var crc uint32
	for off := 0; off < n; off += SyntheticBlockLen {
		k := min(n-off, SyntheticBlockLen)
		blk := dst[:k]
		if len(dst) >= n {
			blk = dst[off : off+k]
		}
		s.fill(blk)
		crc = crc32.Update(crc, crc32.IEEETable, blk)
	}
	return crc
}

// parseHeader validates a segment's fixed header and returns its full
// encoded length — the one header check DecodeSegment and ReadSegment
// share.
func parseHeader(fixed []byte) (int, error) {
	if string(fixed[:4]) != segmentMagic {
		return 0, ErrBadMagic
	}
	if fixed[4] != segmentVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, fixed[4])
	}
	idLen := int(fixed[7])
	if idLen == 0 {
		return 0, fmt.Errorf("media: segment has empty video ID")
	}
	payloadLen := binary.BigEndian.Uint32(fixed[payloadLenOffset:])
	if payloadLen > MaxPayloadLen {
		return 0, fmt.Errorf("media: payload length %d exceeds max", payloadLen)
	}
	return headerFixedLen + idLen + int(payloadLen), nil
}

// DecodeSegment decodes buf as exactly one segment, validating magic,
// version, bounds and payload CRC. The returned payload aliases buf —
// nothing is copied — so it is valid as long as buf is and changes
// with it. A buf shorter than the segment its header declares fails
// with io.ErrUnexpectedEOF (io.EOF when empty); bytes past the
// payload fail with ErrTrailingBytes, so a body longer than its
// segment is never silently accepted.
func DecodeSegment(buf []byte) (SegmentHeader, []byte, error) {
	if len(buf) == 0 {
		return SegmentHeader{}, nil, io.EOF
	}
	if len(buf) < headerFixedLen {
		return SegmentHeader{}, nil, io.ErrUnexpectedEOF
	}
	total, err := parseHeader(buf)
	if err != nil {
		return SegmentHeader{}, nil, err
	}
	if len(buf) < total {
		return SegmentHeader{}, nil, io.ErrUnexpectedEOF
	}
	if len(buf) > total {
		return SegmentHeader{}, nil, fmt.Errorf("%w: %d bytes past a %d-byte segment", ErrTrailingBytes, len(buf)-total, total)
	}
	idEnd := headerFixedLen + int(buf[7])
	payload := buf[idEnd:total:total]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[crcOffset:]) {
		return SegmentHeader{}, nil, ErrCorrupt
	}
	h := SegmentHeader{
		VideoID:  string(buf[headerFixedLen:idEnd]),
		Quality:  int(buf[5]),
		Flags:    buf[6],
		Tile:     tiling.TileID(binary.BigEndian.Uint16(buf[8:])),
		Start:    time.Duration(binary.BigEndian.Uint32(buf[10:])) * time.Millisecond,
		Duration: time.Duration(binary.BigEndian.Uint32(buf[14:])) * time.Millisecond,
	}
	return h, payload, nil
}

// ReadSegment reads exactly one segment from r — the stream adapter
// over DecodeSegment for readers that carry segments back to back. It
// reads the fixed header to learn the segment's length, reads the rest
// into one buffer of exactly that length and decodes it with
// DecodeSegment, so the returned payload aliases that buffer. A reader
// that ends mid-segment fails with io.ErrUnexpectedEOF; one that is
// already at its end returns io.EOF.
func ReadSegment(r io.Reader) (SegmentHeader, []byte, error) {
	var fixed [headerFixedLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return SegmentHeader{}, nil, err
	}
	total, err := parseHeader(fixed[:])
	if err != nil {
		return SegmentHeader{}, nil, err
	}
	buf := make([]byte, total)
	copy(buf, fixed[:])
	if _, err := io.ReadFull(r, buf[headerFixedLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return SegmentHeader{}, nil, err
	}
	return DecodeSegment(buf)
}

// SegmentLen returns the encoded size of a segment with the given ID and
// payload length — used to size buffers and to account wire bytes.
func SegmentLen(videoID string, payloadLen int) int {
	return headerFixedLen + len(videoID) + payloadLen
}

// SyntheticPayload produces deterministic pseudo-random payload bytes
// standing in for coded video data. The same (seed, n) always yields the
// same bytes, so CRCs are stable across runs, and distinct seeds yield
// distinct streams.
func SyntheticPayload(seed uint64, n int) []byte {
	if n <= 0 {
		return []byte{}
	}
	return AppendSyntheticPayload(make([]byte, 0, n), seed, n)
}

// AppendSyntheticPayload appends SyntheticPayload(seed, n) to dst and
// returns the extended slice, allocating only when dst lacks capacity.
func AppendSyntheticPayload(dst []byte, seed uint64, n int) []byte {
	if n <= 0 {
		return dst
	}
	dst = growCap(dst, n)
	base := len(dst)
	dst = dst[:base+n]
	s := newSynthStream(seed)
	s.fill(dst[base:])
	return dst
}

// synthStream is the resumable form of the synthetic-payload
// generator: consecutive fill calls emit consecutive bytes of the same
// prefix-stable stream, which is what lets WriteSyntheticSegment
// regenerate a payload block by block instead of holding it whole.
// Callers must keep every fill length a multiple of 8 except the last
// (the word generator has no partial-word carry).
type synthStream struct{ x uint64 }

// newSynthStream seeds the stream. The seed is mixed through a
// splitmix64 finalizer before forcing it odd: seeding xorshift with a
// raw `seed | 1` collapses seeds 2k and 2k+1 onto the same stream, so
// distinct chunks could share payload bytes and skew cache-dedup and
// CRC-based comparisons.
func newSynthStream(seed uint64) synthStream {
	x := seed + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	x |= 1 // xorshift state must stay non-zero
	return synthStream{x: x}
}

// fill writes the next len(p) bytes of the stream into p.
func (s *synthStream) fill(p []byte) {
	// xorshift64* — tiny, fast, deterministic.
	x := s.x
	n := len(p)
	for i := 0; i < n; i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := x * 2685821657736338717
		if i+8 <= n {
			binary.LittleEndian.PutUint64(p[i:], v)
		} else {
			for j := 0; i+j < n; j++ {
				p[i+j] = byte(v >> (8 * j))
			}
		}
	}
	s.x = x
}
