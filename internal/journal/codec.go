package journal

import (
	"fmt"

	"oic/internal/binfmt"
	"oic/internal/trace"
)

// Segment layout (all integers little-endian, floats IEEE-754 bits):
//
//	magic   [4]byte  "OICJ"
//	u16     version
//	u16     reserved (zero)
//	records…
//
// Each record:
//
//	u32     payload length
//	u8      type
//	payload (per-type layout below)
//	u32     CRC-32 (IEEE) of the preceding 5+length bytes
//
// Per-type payloads (primitives from internal/binfmt, str = u16 length
// + bytes; the memory…policy run is trace.AppendMeta and the flags byte
// is trace.PackFlags, so the fingerprint and step flags are encoded by
// the same code the trace and artifact formats use):
//
//	open:        str id, u16 nx, u16 nu, u16 memory, u32 episodes,
//	             u32 steps, u64 seed, str plant, str scenario,
//	             str policy, f64×nx x0
//	step:        str id, u16 nx, u16 nu, u8 flags, f64×nx w,
//	             f64×nu u, f64×nx x
//	close:       str id
//	fleet-open:  str id, u16 nx, u16 nu, u16 memory, u32 episodes,
//	             u32 steps, u64 seed, str plant, str scenario,
//	             str policy, u32 budget, u32 workers, u32 max sessions
//	fleet-admit: str id, u32 member, u16 nx, f64×nx x0
//	fleet-step:  str id, u32 member, u16 nx, u16 nu, u8 flags,
//	             f64×nx w, f64×nu u, f64×nx x
//	fleet-evict: str id, u32 member
//	fleet-close: str id
//
// The layout has no optional fields and no padding, so every valid
// record has exactly one encoding — an accepted record re-encodes to
// the identical bytes (fuzz-pinned), the same canonical-form property
// the trace and artifact formats hold.

const (
	magic = "OICJ"
	// HeaderSize is the segment header length in bytes.
	HeaderSize = 8
	// frameOverhead is a record's framing cost: length, type, CRC.
	frameOverhead = 4 + 1 + 4
)

// AppendHeader appends a segment header to dst.
func AppendHeader(dst []byte) []byte {
	return binfmt.AppendU16(binfmt.AppendHeader(dst, magic, Version), 0)
}

// CheckHeader validates a segment header prefix.
func CheckHeader(b []byte) error {
	r := binfmt.NewReader("journal", b)
	if err := r.Header(magic, Version); err != nil {
		return err
	}
	if res := r.U16(); res != 0 {
		return fmt.Errorf("journal: nonzero reserved field %d", res)
	}
	return r.Err()
}

// AppendRecord validates r and appends its framed encoding to dst.
// The returned slice reuses dst's storage when capacity allows, so the
// writer's hot path stays allocation-free after warm-up.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	start := len(dst)
	// Reserve the length prefix; backfill once the payload is known.
	dst = append(dst, 0, 0, 0, 0, byte(r.Type))
	body := len(dst)
	dst = binfmt.AppendStr(dst, r.ID)
	switch r.Type {
	case TypeOpen, TypeFleetOpen:
		dst = binfmt.AppendU16(dst, uint16(r.NX))
		dst = binfmt.AppendU16(dst, uint16(r.NU))
		dst = trace.AppendMeta(dst, &r.Meta)
		if r.Type == TypeOpen {
			dst = binfmt.AppendF64s(dst, r.X0)
		} else {
			dst = binfmt.AppendU32(dst, uint32(r.Budget))
			dst = binfmt.AppendU32(dst, uint32(r.Workers))
			dst = binfmt.AppendU32(dst, uint32(r.MaxSessions))
		}
	case TypeStep:
		dst = appendStep(dst, r)
	case TypeClose, TypeFleetClose:
		// id only
	case TypeFleetAdmit:
		dst = binfmt.AppendU32(dst, r.Member)
		dst = binfmt.AppendU16(dst, uint16(r.NX))
		dst = binfmt.AppendF64s(dst, r.X0)
	case TypeFleetStep:
		dst = binfmt.AppendU32(dst, r.Member)
		dst = appendStep(dst, r)
	case TypeFleetEvict:
		dst = binfmt.AppendU32(dst, r.Member)
	}
	payload := len(dst) - body
	if payload > MaxPayload {
		return nil, fmt.Errorf("journal: record payload %d exceeds %d", payload, MaxPayload)
	}
	binfmt.PutU32(dst[start:], uint32(payload))
	return binfmt.AppendCRC(dst, start), nil
}

// appendStep appends the step payload shared by step and fleet-step.
func appendStep(dst []byte, r *Record) []byte {
	dst = binfmt.AppendU16(dst, uint16(r.NX))
	dst = binfmt.AppendU16(dst, uint16(r.NU))
	dst = append(dst, trace.PackFlags(r.Ran, r.Forced, r.Level))
	dst = binfmt.AppendF64s(dst, r.W)
	dst = binfmt.AppendF64s(dst, r.U)
	return binfmt.AppendF64s(dst, r.X)
}

// readDims reads u16 nx · u16 nu and bounds them.
func readDims(d *binfmt.Reader, r *Record) error {
	r.NX, r.NU = int(d.U16()), int(d.U16())
	if r.NX < 1 || r.NX > MaxDim || r.NU < 1 || r.NU > MaxDim {
		return d.Fail(fmt.Errorf("journal: dimensions %d×%d outside [1, %d]", r.NX, r.NU, MaxDim))
	}
	return nil
}

// readStep reads what appendStep wrote.
func readStep(d *binfmt.Reader, r *Record) error {
	if err := readDims(d, r); err != nil {
		return err
	}
	f := d.U8()
	var ok bool
	if r.Ran, r.Forced, r.Level, ok = trace.UnpackFlags(f); !ok {
		return d.Fail(fmt.Errorf("journal: unknown flag bits 0x%02x", f))
	}
	r.W = d.F64s(r.NX)
	r.U = d.F64s(r.NU)
	r.X = d.F64s(r.NX)
	return nil
}

// DecodeRecord parses one framed record from the front of b, returning
// the record and the number of bytes consumed. It is strict: the CRC
// must match, the payload must decode exactly (no trailing bytes), and
// every field must be in range. A short or corrupt b returns an error
// and consumes nothing — the caller treats that as the torn tail.
func DecodeRecord(b []byte) (*Record, int, error) {
	if len(b) < frameOverhead {
		return nil, 0, fmt.Errorf("journal: truncated frame (%d bytes)", len(b))
	}
	frame := binfmt.NewReader("journal", b)
	n := int(frame.U32())
	r := &Record{Type: Type(frame.U8())}
	if n > MaxPayload {
		return nil, 0, fmt.Errorf("journal: payload length %d exceeds %d", n, MaxPayload)
	}
	total := frameOverhead + n
	if len(b) < total {
		return nil, 0, fmt.Errorf("journal: truncated record (have %d of %d bytes)", len(b), total)
	}
	if err := binfmt.CheckCRC("journal", b[:total]); err != nil {
		return nil, 0, err
	}
	d := binfmt.NewReader("journal", b[5:total-4])
	r.ID = d.Str(MaxString)
	switch r.Type {
	case TypeOpen, TypeFleetOpen:
		if err := readDims(d, r); err != nil {
			return nil, 0, err
		}
		r.Meta = trace.ReadMeta(d)
		if r.Type == TypeOpen {
			r.X0 = d.F64s(r.NX)
		} else {
			r.Budget = int(d.U32())
			r.Workers = int(d.U32())
			r.MaxSessions = int(d.U32())
		}
	case TypeStep:
		if err := readStep(d, r); err != nil {
			return nil, 0, err
		}
	case TypeClose, TypeFleetClose:
		// id only
	case TypeFleetAdmit:
		r.Member = d.U32()
		r.NX = int(d.U16())
		if r.NX < 1 || r.NX > MaxDim {
			return nil, 0, d.Fail(fmt.Errorf("journal: nx %d outside [1, %d]", r.NX, MaxDim))
		}
		r.X0 = d.F64s(r.NX)
	case TypeFleetStep:
		r.Member = d.U32()
		if err := readStep(d, r); err != nil {
			return nil, 0, err
		}
	case TypeFleetEvict:
		r.Member = d.U32()
	default:
		return nil, 0, d.Fail(fmt.Errorf("journal: unknown record type %d", r.Type))
	}
	if err := d.Err(); err != nil {
		return nil, 0, err
	}
	if d.Len() != 0 {
		return nil, 0, fmt.Errorf("journal: %d trailing payload bytes", d.Len())
	}
	if err := r.Validate(); err != nil {
		return nil, 0, err
	}
	return r, total, nil
}

// ReadSegment parses a whole segment. The header must be valid (a file
// that is not a journal is an error); the record stream is read until
// the first torn or corrupt record, which truncates the segment there —
// torn reports whether any bytes were discarded. No prefix of a valid
// segment, and no corruption of one, panics (fuzz-pinned).
func ReadSegment(b []byte) (recs []*Record, torn bool, err error) {
	if err := CheckHeader(b); err != nil {
		return nil, false, err
	}
	off := HeaderSize
	for off < len(b) {
		r, n, err := DecodeRecord(b[off:])
		if err != nil {
			return recs, true, nil
		}
		recs = append(recs, r)
		off += n
	}
	return recs, false, nil
}
