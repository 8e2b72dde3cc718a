package artifact

import (
	"fmt"

	"oic/internal/binfmt"
	"oic/internal/mat"
	"oic/internal/poly"
	"oic/internal/trace"
)

// Binary wire layout (all integers little-endian, floats IEEE-754 bits,
// primitives from internal/binfmt):
//
//	magic   [4]byte  "OICA"
//	u16     version
//	u16     nx
//	u16     nu
//	meta    (trace.AppendMeta: u16 memory — canonical config value,
//	        0 = default — u32 train episodes, u32 train steps, u64 train
//	        seed, str plant, str scenario, str policy; str = u16 length
//	        + bytes)
//	poly    X, XI, X′ (each: u16 rows, u16 cols, f64×R×C A row-major, f64×R B)
//	u16     skip-chain length m, then m polytopes S₁…S_m
//	u8      policy kind (0 = none, 1 = snapshot); kind 1 adds:
//	        str label, u16 memory,
//	        u16 layer-size count, u16 per size,
//	        per layer: f64×(r·c) weights then f64×r biases,
//	        u16 state-bound length, f64s xCenter, f64s xScale,
//	        u16 disturbance-bound length, f64s wScale
//	u32     train stats episodes, u32 total steps,
//	f64     mean reward, f64 final epsilon, f64 final loss EMA,
//	u32     reward-history length + f64s
//	u32     CRC-32 (IEEE) of every preceding byte
//
// No optional fields, no padding: every valid artifact has exactly one
// encoding, so Encode(Decode(b)) == b (fuzz-pinned) and byte equality of
// encoded artifacts is a sound identity check.

const magic = "OICA"

const (
	policyKindNone     = 0
	policyKindSnapshot = 1
)

// Encode serializes the artifact into the canonical binary form. The
// artifact must be valid (Validate), or an error is returned.
func Encode(a *Artifact) ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	buf := binfmt.AppendHeader(nil, magic, Version)
	buf = binfmt.AppendU16(buf, uint16(a.NX))
	buf = binfmt.AppendU16(buf, uint16(a.NU))
	buf = trace.AppendMeta(buf, &a.Meta)
	for _, p := range []*poly.Polytope{a.Sets.X, a.Sets.XI, a.Sets.XPrime} {
		buf = appendPolytope(buf, p)
	}
	buf = binfmt.AppendU16(buf, uint16(len(a.Chain)))
	for _, s := range a.Chain {
		buf = appendPolytope(buf, s)
	}
	if a.Policy == nil {
		buf = append(buf, policyKindNone)
	} else {
		p := a.Policy
		buf = append(buf, policyKindSnapshot)
		buf = binfmt.AppendStr(buf, p.Label)
		buf = binfmt.AppendU16(buf, uint16(p.Memory))
		buf = binfmt.AppendU16(buf, uint16(len(p.Sizes)))
		for _, sz := range p.Sizes {
			buf = binfmt.AppendU16(buf, uint16(sz))
		}
		for l := range p.Weights {
			buf = binfmt.AppendF64s(buf, p.Weights[l])
			buf = binfmt.AppendF64s(buf, p.Biases[l])
		}
		buf = binfmt.AppendU16(buf, uint16(len(p.XCenter)))
		buf = binfmt.AppendF64s(buf, p.XCenter)
		buf = binfmt.AppendF64s(buf, p.XScale)
		buf = binfmt.AppendU16(buf, uint16(len(p.WScale)))
		buf = binfmt.AppendF64s(buf, p.WScale)
	}
	buf = binfmt.AppendU32(buf, uint32(a.Train.Episodes))
	buf = binfmt.AppendU32(buf, uint32(a.Train.TotalSteps))
	buf = binfmt.AppendF64(buf, a.Train.MeanReward)
	buf = binfmt.AppendF64(buf, a.Train.FinalEpsilon)
	buf = binfmt.AppendF64(buf, a.Train.FinalLossEMA)
	buf = binfmt.AppendU32(buf, uint32(len(a.Train.RewardHistory)))
	buf = binfmt.AppendF64s(buf, a.Train.RewardHistory)
	return binfmt.AppendCRC(buf, 0), nil
}

// appendPolytope appends u16 rows · u16 cols · f64×rows×cols A
// (row-major) · f64×rows B. Validate bounds both dimensions far below
// u16.
func appendPolytope(dst []byte, p *poly.Polytope) []byte {
	dst = binfmt.AppendU16(dst, uint16(p.A.R))
	dst = binfmt.AppendU16(dst, uint16(p.A.C))
	dst = binfmt.AppendF64s(dst, p.A.Data)
	return binfmt.AppendF64s(dst, p.B)
}

// readPolytope reads an appendPolytope block. The floats are the raw
// bits, so the decoded polytope is bit-identical to the encoded one.
func readPolytope(r *binfmt.Reader) (*poly.Polytope, error) {
	rows, cols := int(r.U16()), int(r.U16())
	if rows < 1 || rows > MaxRows || cols < 1 || cols > MaxDim {
		return nil, r.Fail(fmt.Errorf("artifact: polytope %d×%d outside [1, %d]×[1, %d]", rows, cols, MaxRows, MaxDim))
	}
	a := &mat.Mat{R: rows, C: cols, Data: r.F64s(rows * cols)}
	b := r.F64s(rows)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return poly.New(a, b), nil
}

// Decode parses a canonical binary artifact. It is strict: unknown
// versions and policy kinds, out-of-range dimensions and counts, length
// mismatches, trailing bytes, and checksum failures are all rejected, and
// every length is checked against the remaining input before the
// corresponding allocation — a hostile input cannot make Decode allocate
// more than the input's own size justifies.
func Decode(b []byte) (*Artifact, error) {
	r := binfmt.NewReader("artifact", b)
	if err := r.Header(magic, Version); err != nil {
		return nil, err
	}
	a := &Artifact{Version: Version, NX: int(r.U16()), NU: int(r.U16()), Meta: trace.ReadMeta(r)}
	var err error
	for _, s := range []**poly.Polytope{&a.Sets.X, &a.Sets.XI, &a.Sets.XPrime} {
		if *s, err = readPolytope(r); err != nil {
			return nil, err
		}
	}
	chainLen := int(r.U16())
	if chainLen > MaxChain {
		return nil, fmt.Errorf("artifact: skip chain length %d exceeds %d", chainLen, MaxChain)
	}
	for i := 0; i < chainLen; i++ {
		s, err := readPolytope(r)
		if err != nil {
			return nil, err
		}
		a.Chain = append(a.Chain, s)
	}
	switch kind := r.U8(); kind {
	case policyKindNone:
	case policyKindSnapshot:
		if a.Policy, err = readPolicy(r); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("artifact: unknown policy kind %d", kind)
	}
	a.Train = TrainStats{
		Episodes:     int(r.U32()),
		TotalSteps:   int(r.U32()),
		MeanReward:   r.F64(),
		FinalEpsilon: r.F64(),
		FinalLossEMA: r.F64(),
	}
	nhist := int(r.U32())
	if nhist > MaxHistory {
		return nil, fmt.Errorf("artifact: reward history length %d exceeds %d", nhist, MaxHistory)
	}
	if nhist > 0 {
		a.Train.RewardHistory = r.F64s(nhist)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Len() != 4 {
		return nil, fmt.Errorf("artifact: %d trailing bytes after body", r.Len()-4)
	}
	if err := binfmt.CheckCRC("artifact", b); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// readPolicy reads the body of a snapshot policy (kind 1).
func readPolicy(r *binfmt.Reader) (*Policy, error) {
	p := &Policy{Label: r.Str(MaxString), Memory: int(r.U16())}
	nsizes := int(r.U16())
	if nsizes < 2 || nsizes > MaxLayers+1 {
		return nil, r.Fail(fmt.Errorf("artifact: policy has %d layer sizes outside [2, %d]", nsizes, MaxLayers+1))
	}
	p.Sizes = make([]int, nsizes)
	for i := range p.Sizes {
		p.Sizes[i] = int(r.U16())
		if p.Sizes[i] < 1 || p.Sizes[i] > MaxUnits {
			return nil, r.Fail(fmt.Errorf("artifact: policy layer %d size %d outside [1, %d]", i, p.Sizes[i], MaxUnits))
		}
	}
	for l := 0; l < nsizes-1; l++ {
		rows, cols := p.Sizes[l+1], p.Sizes[l]
		p.Weights = append(p.Weights, r.F64s(rows*cols))
		p.Biases = append(p.Biases, r.F64s(rows))
	}
	nx := int(r.U16())
	if nx < 1 || nx > MaxDim {
		return nil, r.Fail(fmt.Errorf("artifact: policy state bounds length %d outside [1, %d]", nx, MaxDim))
	}
	p.XCenter = r.F64s(nx)
	p.XScale = r.F64s(nx)
	nw := int(r.U16())
	if nw < 1 || nw > MaxDim {
		return nil, r.Fail(fmt.Errorf("artifact: policy disturbance bounds length %d outside [1, %d]", nw, MaxDim))
	}
	p.WScale = r.F64s(nw)
	return p, r.Err()
}
