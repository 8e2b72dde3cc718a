package binfmt

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// primitives pairs each Reader primitive with a value's encoding and the
// read that must decode it.
var primitives = []struct {
	name string
	enc  []byte
	read func(r *Reader) any
	want any
}{
	{"U8", []byte{0xA5}, func(r *Reader) any { return r.U8() }, uint8(0xA5)},
	{"U16", AppendU16(nil, 0xBEEF), func(r *Reader) any { return r.U16() }, uint16(0xBEEF)},
	{"U32", AppendU32(nil, 0xDEADBEEF), func(r *Reader) any { return r.U32() }, uint32(0xDEADBEEF)},
	{"U64", AppendU64(nil, 1<<63|7), func(r *Reader) any { return r.U64() }, uint64(1<<63 | 7)},
	{"F64", AppendF64(nil, -2.5), func(r *Reader) any { return r.F64() }, -2.5},
	{"F64s", AppendF64s(nil, []float64{1, math.Inf(-1), 0.125}),
		func(r *Reader) any { return r.F64s(3) }, []float64{1, math.Inf(-1), 0.125}},
	{"Str", AppendStr(nil, "acc"), func(r *Reader) any { return r.Str(8) }, "acc"},
}

func TestPrimitivesRoundTrip(t *testing.T) {
	for _, p := range primitives {
		r := NewReader("test", p.enc)
		if got := p.read(r); !reflect.DeepEqual(got, p.want) {
			t.Errorf("%s: read %v, want %v", p.name, got, p.want)
		}
		if err := r.Err(); err != nil || r.Len() != 0 {
			t.Errorf("%s: err %v, %d bytes left", p.name, err, r.Len())
		}
	}
}

// Every primitive cut at every offset fails with ErrTruncated, never
// panics, and leaves the Reader failed: a later read returns zero.
func TestPrimitivesTruncatedAtEveryOffset(t *testing.T) {
	for _, p := range primitives {
		for cut := 0; cut < len(p.enc); cut++ {
			r := NewReader("test", p.enc[:cut])
			p.read(r)
			if err := r.Err(); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s cut at %d: err %v, want ErrTruncated", p.name, cut, err)
			}
			if !strings.HasPrefix(r.Err().Error(), "test: ") {
				t.Errorf("%s: error %q lacks the reader's name", p.name, r.Err())
			}
			if v := r.U8(); v != 0 {
				t.Errorf("%s cut at %d: read after failure returned %d", p.name, cut, v)
			}
		}
	}
}

// A hostile count larger than the remaining input fails before the
// slice is allocated.
func TestF64sHostileCountAllocatesNothing(t *testing.T) {
	buf := AppendF64s(nil, []float64{1, 2})
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader("test", buf)
		if r.F64s(1<<40) != nil || r.Len() != len(buf) {
			t.Fatal("F64s consumed input for a count the input cannot hold")
		}
	})
	if allocs != 0 {
		t.Errorf("hostile F64s allocated %.0f times, want 0", allocs)
	}
	r := NewReader("test", buf)
	r.F64s(3)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("err %v, want ErrTruncated", r.Err())
	}
}

func TestStrOverMaxRejected(t *testing.T) {
	enc := AppendStr(nil, "scenario")
	r := NewReader("test", enc)
	if s := r.Str(7); s != "" {
		t.Errorf("Str over max returned %q", s)
	}
	err := r.Err()
	if err == nil || errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "exceeds 7") {
		t.Errorf("err %v, want a length-over-max error", err)
	}
	if s := NewReader("test", enc).Str(8); s != "scenario" {
		t.Errorf("Str at max read %q", s)
	}
}

// Fail reports a pending truncation in preference to the decoder's own
// range error, so a zero read from short input still reads as truncated.
func TestFailPrefersTruncation(t *testing.T) {
	errRange := errors.New("nx outside range")
	r := NewReader("test", []byte{1})
	if nx := r.U16(); nx != 0 {
		t.Fatalf("short U16 read %d", nx)
	}
	if err := r.Fail(errRange); !errors.Is(err, ErrTruncated) {
		t.Errorf("Fail = %v, want ErrTruncated", err)
	}
	if err := NewReader("test", nil).Fail(errRange); err != errRange {
		t.Errorf("Fail with nothing pending = %v, want the range error", err)
	}
}

func TestHeader(t *testing.T) {
	good := AppendHeader(nil, "OICT", 1)
	if err := NewReader("test", good).Header("OICT", 1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"short", good[:5], ErrTruncated},
		{"foreign magic", AppendHeader(nil, "OICX", 1), ErrBadMagic},
		{"other version", AppendHeader(nil, "OICT", 2), ErrBadVersion},
	}
	for _, tc := range cases {
		if err := NewReader("test", tc.b).Header("OICT", 1); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestCRC(t *testing.T) {
	b := AppendCRC(append([]byte("head"), "body"...), 4)
	if err := CheckCRC("test", b[4:]); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), b[4:]...)
	flipped[1] ^= 0x10
	if err := CheckCRC("test", flipped); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped byte: err %v, want ErrChecksum", err)
	}
	if err := CheckCRC("test", b[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("3-byte input: err %v, want ErrTruncated", err)
	}
}
