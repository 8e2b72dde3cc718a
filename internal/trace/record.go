package trace

import (
	"fmt"
	"math"
)

// Recorder accumulates one episode's steps into flat per-field arenas
// (one slice per field family, not three slices per step), so the
// amortized per-step cost is three bounded appends and a flag byte — the
// recording hook the pkg/oic facade and fleets call on their hot path.
// Materialize the episode with Trace.
//
// A Recorder is not safe for concurrent use; each session or fleet member
// owns its own.
type Recorder struct {
	meta   Meta
	nx, nu int
	x0     []float64
	limit  int // 0 = unlimited

	flags   []byte
	w, u, x []float64 // arenas: step i occupies [i*dim, (i+1)*dim)
	energy  float64
}

// NewRecorder starts a recording at x0. limit caps the recorded steps
// (0 = unlimited); once reached, Append refuses further steps, so a
// server-side recording cannot grow without bound.
func NewRecorder(meta Meta, x0 []float64, nu, limit int) *Recorder {
	return &Recorder{
		meta:  meta,
		nx:    len(x0),
		nu:    nu,
		x0:    append([]float64(nil), x0...),
		limit: limit,
	}
}

// Len returns the number of recorded steps.
func (r *Recorder) Len() int { return len(r.flags) }

// Full reports whether the recorder reached its step limit.
func (r *Recorder) Full() bool { return r.limit > 0 && len(r.flags) >= r.limit }

// Append records one executed step (the slices are copied, so buffer
// views from a recording-off core session are fine). It returns an error
// when the recorder is full or a slice has the wrong length; the episode
// recorded so far stays intact either way.
func (r *Recorder) Append(ran, forced bool, level uint8, w, u, x []float64) error {
	if r.Full() {
		return fmt.Errorf("trace: recording full at %d steps", r.limit)
	}
	if len(w) != r.nx || len(x) != r.nx || len(u) != r.nu {
		return fmt.Errorf("trace: Append dims w=%d u=%d x=%d, want %d/%d/%d",
			len(w), len(u), len(x), r.nx, r.nu, r.nx)
	}
	r.flags = append(r.flags, PackFlags(ran, forced, level))
	r.w = append(r.w, w...)
	r.u = append(r.u, u...)
	r.x = append(r.x, x...)
	// Accumulate Σ‖u‖₁ in the exact float order core.Result does, so the
	// recorded energy is bit-identical to the runtime's own counter.
	s := 0.0
	for _, v := range u {
		s += math.Abs(v)
	}
	r.energy += s
	return nil
}

// Trace materializes the recording into an owned Trace; the recorder
// remains usable and may keep appending. Step slices are views into one
// backing array per field, copied out of the arenas.
func (r *Recorder) Trace() *Trace {
	n := len(r.flags)
	t := &Trace{
		Version: Version,
		Meta:    r.meta,
		NX:      r.nx,
		NU:      r.nu,
		X0:      append([]float64(nil), r.x0...),
		Energy:  r.energy,
	}
	if n == 0 {
		return t
	}
	w := append([]float64(nil), r.w...)
	u := append([]float64(nil), r.u...)
	x := append([]float64(nil), r.x...)
	t.Steps = make([]Step, n)
	for i := 0; i < n; i++ {
		ran, forced, level, _ := UnpackFlags(r.flags[i])
		t.Steps[i] = Step{
			Ran:    ran,
			Forced: forced,
			Level:  level,
			W:      w[i*r.nx : (i+1)*r.nx : (i+1)*r.nx],
			U:      u[i*r.nu : (i+1)*r.nu : (i+1)*r.nu],
			X:      x[i*r.nx : (i+1)*r.nx : (i+1)*r.nx],
		}
	}
	return t
}
