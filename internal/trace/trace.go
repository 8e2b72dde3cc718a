// Package trace defines the recorded-episode wire format of the runtime
// (DESIGN.md §8): a versioned, deterministic encoding of one closed-loop
// run of Algorithm 1 — the engine-configuration fingerprint, the initial
// state, and per step the realized disturbance, the skip/run decision, the
// applied input, and the successor state.
//
// A trace is the runtime's audit trail (internal/audit re-verifies every
// recorded step against the declared model and safety sets) and the input
// to the replay service (pkg/oic.Replay re-runs a logged episode under the
// same or a substituted policy/budget and diffs the accounting). The
// binary encoding is canonical: Encode(Decode(b)) == b for every valid b,
// a property the FuzzDecodeTrace fuzzer pins, so byte comparison of
// encoded traces is a valid conformance check across refactors.
//
// The byte-level primitives come from internal/binfmt. This package owns
// the two pieces the artifact and journal formats reuse from it: the
// engine fingerprint (Meta, with its one codec AppendMeta/ReadMeta and
// its one bounds check Meta.Validate) and the step-flag byte
// (PackFlags/UnpackFlags).
package trace

import (
	"errors"
	"fmt"
	"math"

	"oic/internal/core"
	"oic/internal/mat"
)

// Version is the wire-format version this package encodes. Decoders accept
// exactly this version; bumping it is a wire-format change.
const Version = 1

// Hard format limits, enforced by Validate and Decode. They bound what a
// hostile encoded trace can make a decoder allocate.
const (
	// MaxDim caps the state and input dimensions (the largest plant is
	// far below this; matches the server's disturbance-memory cap).
	MaxDim = 64
	// MaxSteps caps the episode length.
	MaxSteps = 1 << 20
	// MaxString caps the fingerprint string lengths.
	MaxString = 1024
)

// Meta is the engine-configuration fingerprint a trace was recorded
// under: the exact pkg/oic.Config needed to rebuild the engine (compiled
// sets, controller program, trained policy) that produced the episode.
// Scenario is always the resolved ID, never the empty headline shorthand,
// so a fingerprint is stable across default changes.
type Meta struct {
	Plant         string `json:"plant"`
	Scenario      string `json:"scenario"`
	Policy        string `json:"policy"`
	Memory        int    `json:"memory,omitempty"`
	TrainEpisodes int    `json:"train_episodes,omitempty"`
	TrainSteps    int    `json:"train_steps,omitempty"`
	TrainSeed     int64  `json:"train_seed,omitempty"`
}

// Validate checks the fingerprint against the wire-format bounds: a
// plant name, strings within MaxString, memory within [0, MaxDim], and a
// training budget that fits the u32 fields. It is the one check the
// trace, artifact and journal formats share; their Validate methods wrap
// its error with their own name.
func (m *Meta) Validate() error {
	if m.Plant == "" {
		return errors.New("empty plant name")
	}
	for _, s := range []struct{ name, v string }{
		{"plant", m.Plant}, {"scenario", m.Scenario}, {"policy", m.Policy},
	} {
		if len(s.v) > MaxString {
			return fmt.Errorf("%s name exceeds %d bytes", s.name, MaxString)
		}
	}
	if m.Memory < 0 || m.Memory > MaxDim {
		return fmt.Errorf("memory %d outside [0, %d]", m.Memory, MaxDim)
	}
	if m.TrainEpisodes < 0 || m.TrainEpisodes > math.MaxUint32 ||
		m.TrainSteps < 0 || m.TrainSteps > math.MaxUint32 {
		return fmt.Errorf("training budget %d×%d outside uint32", m.TrainEpisodes, m.TrainSteps)
	}
	return nil
}

// Step is one recorded control step. X is the successor state; the
// pre-step state is the previous step's X (or the trace's X0), so states
// are stored once.
type Step struct {
	Ran    bool      `json:"ran"`              // effective z(t): κ computed and applied
	Forced bool      `json:"forced,omitempty"` // monitor overrode the policy (x ∉ X′)
	Level  uint8     `json:"level"`            // core.Level code of the pre-step state
	W      []float64 `json:"w"`                // realized disturbance
	U      []float64 `json:"u"`                // applied input (zeros when skipped)
	X      []float64 `json:"x"`                // successor state
}

// Trace is one recorded episode.
type Trace struct {
	Version int       `json:"version"`
	Meta    Meta      `json:"meta"`
	NX      int       `json:"nx"`
	NU      int       `json:"nu"`
	X0      []float64 `json:"x0"`
	Steps   []Step    `json:"steps"`
	// Energy is Σ‖u‖₁ as accumulated by the runtime (same float order),
	// so a clean audit implies the recorded accounting matches the inputs.
	Energy float64 `json:"energy"`
}

// Len returns the number of recorded steps.
func (t *Trace) Len() int { return len(t.Steps) }

// Validate checks the structural invariants of a trace: supported
// version, dimensions and lengths within the format limits and consistent
// across steps, level codes in range, and finite energy. Decode runs it;
// JSON consumers must call it themselves.
func (t *Trace) Validate() error {
	if t.Version != Version {
		return fmt.Errorf("trace: unsupported version %d (want %d)", t.Version, Version)
	}
	if err := t.Meta.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if t.NX < 1 || t.NX > MaxDim {
		return fmt.Errorf("trace: nx %d outside [1, %d]", t.NX, MaxDim)
	}
	if t.NU < 1 || t.NU > MaxDim {
		return fmt.Errorf("trace: nu %d outside [1, %d]", t.NU, MaxDim)
	}
	if len(t.Steps) > MaxSteps {
		return fmt.Errorf("trace: %d steps exceeds %d", len(t.Steps), MaxSteps)
	}
	if len(t.X0) != t.NX {
		return fmt.Errorf("trace: x0 has dim %d, want %d", len(t.X0), t.NX)
	}
	for i := range t.Steps {
		st := &t.Steps[i]
		if st.Level > uint8(core.Unsafe) {
			return fmt.Errorf("trace: step %d: level code %d out of range", i, st.Level)
		}
		if len(st.W) != t.NX || len(st.X) != t.NX {
			return fmt.Errorf("trace: step %d: w/x dims %d/%d, want %d", i, len(st.W), len(st.X), t.NX)
		}
		if len(st.U) != t.NU {
			return fmt.Errorf("trace: step %d: u has dim %d, want %d", i, len(st.U), t.NU)
		}
	}
	if math.IsNaN(t.Energy) || math.IsInf(t.Energy, 0) {
		return fmt.Errorf("trace: non-finite energy")
	}
	return nil
}

// ToResult reassembles the trace into a core.Result whose Records chain
// X0 → Steps[0].X → … — the shape internal/audit re-verifies. Counters
// (runs, skips, forced, energy) are recomputed from the records except
// Energy, which carries the recorded total so audit checks the recorded
// accounting, not a recomputation of it. Slices are shared with the
// trace; do not mutate.
func (t *Trace) ToResult() *core.Result {
	res := &core.Result{Energy: t.Energy}
	if len(t.Steps) > 0 {
		res.Records = make([]core.StepRecord, len(t.Steps))
	}
	prev := mat.Vec(t.X0)
	for i := range t.Steps {
		st := &t.Steps[i]
		res.Records[i] = core.StepRecord{
			T:      i,
			X:      prev,
			Level:  core.Level(st.Level),
			Ran:    st.Ran,
			Forced: st.Forced,
			U:      mat.Vec(st.U),
			W:      mat.Vec(st.W),
			Next:   mat.Vec(st.X),
		}
		if st.Ran {
			res.Runs++
			res.ControllerCalls++
			if st.Forced {
				res.Forced++
			}
		} else {
			res.Skips++
		}
		prev = mat.Vec(st.X)
	}
	return res
}

// States returns the state sequence X0, Steps[0].X, …, Steps[n-1].X as
// views into the trace (do not mutate).
func (t *Trace) States() []mat.Vec {
	out := make([]mat.Vec, 0, len(t.Steps)+1)
	out = append(out, mat.Vec(t.X0))
	for i := range t.Steps {
		out = append(out, mat.Vec(t.Steps[i].X))
	}
	return out
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := *t
	out.X0 = append([]float64(nil), t.X0...)
	out.Steps = make([]Step, len(t.Steps))
	for i, st := range t.Steps {
		st.W = append([]float64(nil), st.W...)
		st.U = append([]float64(nil), st.U...)
		st.X = append([]float64(nil), st.X...)
		out.Steps[i] = st
	}
	return &out
}
