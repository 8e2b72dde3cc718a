// Package binfmt is the one byte layer under the repository's binary
// formats — OICT traces (DESIGN.md §8), OICA artifacts (§9) and OICJ
// journal segments (§10). It is the only code that reads or writes
// little-endian fields, u16-length-prefixed strings, float64 runs
// (raw IEEE-754 bits, so NaN payloads survive), 4-byte magic + u16
// version headers, and CRC-32 (IEEE) trailers.
//
// The Append functions extend a caller-owned slice and never fail; the
// formats validate before they encode. Reader is a bounds-checked cursor
// with a sticky error: once a read runs past the end, every later read
// returns a zero value, so a decoder reads a run of fields and checks
// Err once. No read allocates before it has checked that the input
// holds the bytes it asks for, so a hostile length cannot make a
// decoder allocate more than its input justifies.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Typed decode failures. Errors returned by this package wrap one of
// them (prefixed with the format's name), so callers tell a damaged or
// cut input from a foreign one with errors.Is.
var (
	ErrTruncated  = errors.New("truncated input")
	ErrBadMagic   = errors.New("bad magic")
	ErrBadVersion = errors.New("unsupported version")
	ErrChecksum   = errors.New("checksum mismatch")
)

// AppendU16 appends v little-endian.
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// PutU32 writes v little-endian into b[:4] — a length prefix reserved
// before the payload it counts was appended.
func PutU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// AppendF64 appends v's IEEE-754 bits little-endian.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendF64s appends each of vs with AppendF64. The count is not
// written; the format carries it elsewhere.
func AppendF64s(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = AppendF64(dst, v)
	}
	return dst
}

// AppendStr appends s as a u16 length followed by its bytes. The caller
// has checked len(s) against the format's limit.
func AppendStr(dst []byte, s string) []byte {
	return append(AppendU16(dst, uint16(len(s))), s...)
}

// AppendHeader appends a format header: the 4-byte magic, then the
// version as u16.
func AppendHeader(dst []byte, magic string, version uint16) []byte {
	return AppendU16(append(dst, magic...), version)
}

// AppendCRC appends the CRC-32 (IEEE) of dst[start:] as u32.
func AppendCRC(dst []byte, start int) []byte {
	return AppendU32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// CheckCRC verifies a CRC-32 (IEEE) trailer: the last four bytes of b
// must hold the checksum of every byte before them. name prefixes the
// error.
func CheckCRC(name string, b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("%s: %w (%d bytes, need a 4-byte checksum)", name, ErrTruncated, len(b))
	}
	body := len(b) - 4
	stored := binary.LittleEndian.Uint32(b[body:])
	if got := crc32.ChecksumIEEE(b[:body]); got != stored {
		return fmt.Errorf("%s: %w (stored %08x, computed %08x)", name, ErrChecksum, stored, got)
	}
	return nil
}

// Reader is a bounds-checked little-endian cursor over one encoded
// value. Its error is sticky: after the first failed read, every read
// returns a zero value and Err reports that first failure.
type Reader struct {
	name string
	b    []byte
	off  int
	// The first failure. A read past the end records where and how much
	// it asked for, and Err builds the error only when asked, so a
	// failed read allocates nothing; any other failure is err.
	shortAt, shortNeed int
	short              bool
	err                error
}

// NewReader returns a Reader over b. name prefixes its errors ("trace",
// "artifact", "journal").
func NewReader(name string, b []byte) *Reader { return &Reader{name: name, b: b} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Err returns the first read failure, or nil. A read past the end
// wraps ErrTruncated with the offset it failed at.
func (r *Reader) Err() error {
	if r.short {
		return fmt.Errorf("%s: %w at offset %d (need %d bytes)", r.name, ErrTruncated, r.shortAt, r.shortNeed)
	}
	return r.err
}

// Fail returns the pending read failure if there is one, else err. A
// decoder passes its own range error through Fail, so a field that reads
// as zero because the input was cut short still reports as truncated.
func (r *Reader) Fail(err error) error {
	if e := r.Err(); e != nil {
		return e
	}
	return err
}

func (r *Reader) failed() bool { return r.short || r.err != nil }

// take consumes n bytes, or records a truncation and returns nil.
func (r *Reader) take(n int) []byte {
	if r.failed() {
		return nil
	}
	if n > r.Len() {
		r.short, r.shortAt, r.shortNeed = true, r.off, n
		return nil
	}
	s := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return s
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if s := r.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// F64 reads a float64 from its little-endian IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F64s reads n float64s into a new slice. It checks that 8n bytes
// remain before it allocates; on failure it returns nil.
func (r *Reader) F64s(n int) []float64 {
	if r.failed() {
		return nil
	}
	if n < 0 || n > r.Len()/8 {
		r.short, r.shortAt, r.shortNeed = true, r.off, 8*n
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

// Str reads a u16 length and that many bytes as a string. A length
// above max fails the Reader before anything is allocated.
func (r *Reader) Str(max int) string {
	n := int(r.U16())
	if r.failed() {
		return ""
	}
	if n > max {
		r.err = fmt.Errorf("%s: string length %d exceeds %d", r.name, n, max)
		return ""
	}
	return string(r.take(n))
}

// Header reads and checks a format header written by AppendHeader. A
// foreign magic wraps ErrBadMagic, another version ErrBadVersion.
func (r *Reader) Header(magic string, version uint16) error {
	m := r.take(len(magic))
	v := r.U16()
	if err := r.Err(); err != nil {
		return err
	}
	if string(m) != magic {
		return fmt.Errorf("%s: %w %q", r.name, ErrBadMagic, m)
	}
	if v != version {
		return fmt.Errorf("%s: %w %d (want %d)", r.name, ErrBadVersion, v, version)
	}
	return nil
}
