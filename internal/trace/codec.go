package trace

import (
	"fmt"

	"oic/internal/binfmt"
)

// Binary wire layout (all integers little-endian, floats IEEE-754 bits,
// primitives from internal/binfmt):
//
//	magic   [4]byte  "OICT"
//	u16     version
//	u16     nx
//	u16     nu
//	meta    (AppendMeta: u16 memory, u32 train episodes, u32 train
//	        steps, u64 train seed, str plant, str scenario, str policy;
//	        str = u16 length + bytes)
//	u32     step count
//	f64     energy
//	f64×nx  x0
//	steps:  u8 flags (PackFlags: bit0 ran, bit1 forced, bits 2–3 level,
//	        rest zero), f64×nx w, f64×nu u, f64×nx x
//	u32     CRC-32 (IEEE) of every preceding byte
//
// The layout has no optional fields and no padding, so every valid trace
// has exactly one encoding: Encode(Decode(b)) == b (fuzz-pinned), which
// makes byte equality of encoded traces a sound conformance check.

const (
	magic      = "OICT"
	flagRan    = 1 << 0
	flagForced = 1 << 1
	levelShift = 2
	levelMask  = 0b11
	flagKnown  = flagRan | flagForced | levelMask<<levelShift
)

// PackFlags packs a step's skip/run decision into the step-flag byte the
// trace and journal formats share: bit0 ran, bit1 forced, bits 2–3 level.
func PackFlags(ran, forced bool, level uint8) byte {
	var f byte
	if ran {
		f |= flagRan
	}
	if forced {
		f |= flagForced
	}
	return f | (level&levelMask)<<levelShift
}

// UnpackFlags inverts PackFlags. ok is false when f has a bit set that
// PackFlags never writes.
func UnpackFlags(f byte) (ran, forced bool, level uint8, ok bool) {
	return f&flagRan != 0, f&flagForced != 0, (f >> levelShift) & levelMask, f&^byte(flagKnown) == 0
}

// AppendMeta appends the fingerprint block the trace, artifact and
// journal formats share: u16 memory, u32 train episodes, u32 train
// steps, u64 train seed (two's complement), then the plant, scenario and
// policy strings. m must be valid (Meta.Validate).
func AppendMeta(dst []byte, m *Meta) []byte {
	dst = binfmt.AppendU16(dst, uint16(m.Memory))
	dst = binfmt.AppendU32(dst, uint32(m.TrainEpisodes))
	dst = binfmt.AppendU32(dst, uint32(m.TrainSteps))
	dst = binfmt.AppendU64(dst, uint64(m.TrainSeed))
	dst = binfmt.AppendStr(dst, m.Plant)
	dst = binfmt.AppendStr(dst, m.Scenario)
	return binfmt.AppendStr(dst, m.Policy)
}

// ReadMeta reads a block written by AppendMeta. Failures stay on r; the
// caller checks r.Err and then Meta.Validate.
func ReadMeta(r *binfmt.Reader) Meta {
	return Meta{
		Memory:        int(r.U16()),
		TrainEpisodes: int(r.U32()),
		TrainSteps:    int(r.U32()),
		TrainSeed:     int64(r.U64()),
		Plant:         r.Str(MaxString),
		Scenario:      r.Str(MaxString),
		Policy:        r.Str(MaxString),
	}
}

// stepSize returns the encoded size of one step for the given dimensions.
func stepSize(nx, nu int) int { return 1 + 8*(2*nx+nu) }

// Encode serializes the trace into the canonical binary form. The trace
// must be valid (Validate), or an error is returned.
func Encode(t *Trace) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Capacity hint: the steps dominate; long fingerprint strings may
	// grow the buffer once.
	buf := make([]byte, 0, 128+8*t.NX+len(t.Steps)*stepSize(t.NX, t.NU))
	buf = binfmt.AppendHeader(buf, magic, Version)
	buf = binfmt.AppendU16(buf, uint16(t.NX))
	buf = binfmt.AppendU16(buf, uint16(t.NU))
	buf = AppendMeta(buf, &t.Meta)
	buf = binfmt.AppendU32(buf, uint32(len(t.Steps)))
	buf = binfmt.AppendF64(buf, t.Energy)
	buf = binfmt.AppendF64s(buf, t.X0)
	for i := range t.Steps {
		st := &t.Steps[i]
		buf = append(buf, PackFlags(st.Ran, st.Forced, st.Level))
		buf = binfmt.AppendF64s(buf, st.W)
		buf = binfmt.AppendF64s(buf, st.U)
		buf = binfmt.AppendF64s(buf, st.X)
	}
	return binfmt.AppendCRC(buf, 0), nil
}

// Decode parses a canonical binary trace. It is strict: unknown versions,
// out-of-range dimensions, unknown flag bits, length mismatches, trailing
// bytes, and checksum failures are all rejected, and no allocation happens
// before the header's implied size has been checked against the input
// length — a hostile header cannot make Decode allocate more than the
// input's own size.
func Decode(b []byte) (*Trace, error) {
	r := binfmt.NewReader("trace", b)
	if err := r.Header(magic, Version); err != nil {
		return nil, err
	}
	t := &Trace{Version: Version, NX: int(r.U16()), NU: int(r.U16()), Meta: ReadMeta(r)}
	nsteps := int(r.U32())
	t.Energy = r.F64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nsteps > MaxSteps {
		return nil, fmt.Errorf("trace: %d steps exceeds %d", nsteps, MaxSteps)
	}
	if t.NX < 1 || t.NX > MaxDim || t.NU < 1 || t.NU > MaxDim {
		return nil, fmt.Errorf("trace: dimensions %d×%d outside [1, %d]", t.NX, t.NU, MaxDim)
	}
	// The header fixes the remaining length exactly; reject before
	// allocating step storage.
	if rest := 8*t.NX + nsteps*stepSize(t.NX, t.NU) + 4; r.Len() != rest {
		return nil, fmt.Errorf("trace: body length %d does not match header (want %d)", r.Len(), rest)
	}
	t.X0 = r.F64s(t.NX)
	t.Steps = make([]Step, nsteps)
	for i := range t.Steps {
		f := r.U8()
		ran, forced, level, ok := UnpackFlags(f)
		if !ok {
			return nil, fmt.Errorf("trace: step %d: unknown flag bits 0x%02x", i, f)
		}
		t.Steps[i] = Step{Ran: ran, Forced: forced, Level: level, W: r.F64s(t.NX), U: r.F64s(t.NU), X: r.F64s(t.NX)}
	}
	if err := binfmt.CheckCRC("trace", b); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
