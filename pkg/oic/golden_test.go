package oic

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"oic/internal/artifact"
	"oic/internal/trace"
)

// The golden-trace corpus is the cross-PR regression net: one recorded
// episode per (plant, policy) pinned as canonical bytes under
// internal/trace/testdata/golden (shared with the decoder's fuzz seed
// corpus). The conformance test replays each against a freshly built
// engine and requires byte-identical decisions and states — any refactor
// that shifts a float in the controller, the monitor, a policy, or the
// codec trips it.
//
// Regenerate after an *intentional* numerical change with:
//
//	go test ./pkg/oic -run TestGoldenTraceConformance -update
var updateGolden = flag.Bool("update", false, "regenerate golden traces")

// goldenDir is the shared corpus location (also the fuzz seed corpus of
// internal/trace).
var goldenDir = filepath.Join("..", "..", "internal", "trace", "testdata", "golden")

type goldenCase struct {
	name  string
	cfg   Config
	seed  int64
	steps int
}

// goldenCases covers every registered plant with one κ-heavy episode
// (always-run: the controller solves at every step) and one DRL episode
// (the trained policy's decisions — and its training — are part of the
// pinned behavior).
var goldenCases = []goldenCase{
	{"acc-always-run", Config{Plant: "acc", Policy: PolicyAlwaysRun}, 7, 40},
	{"acc-drl", Config{Plant: "acc", Policy: PolicyDRL, Train: TrainConfig{Episodes: 24, Steps: 40, Seed: 5}}, 7, 40},
	{"thermo-always-run", Config{Plant: "thermo", Policy: PolicyAlwaysRun}, 7, 40},
	{"thermo-drl", Config{Plant: "thermo", Policy: PolicyDRL, Train: TrainConfig{Episodes: 24, Steps: 40, Seed: 5}}, 7, 40},
	{"orbit-always-run", Config{Plant: "orbit", Policy: PolicyAlwaysRun}, 7, 40},
	{"orbit-drl", Config{Plant: "orbit", Policy: PolicyDRL, Train: TrainConfig{Episodes: 24, Steps: 40, Seed: 5}}, 7, 40},
}

// goldenEngines caches one engine per golden configuration for the test
// binary (DRL configurations train once).
var goldenEngines struct {
	sync.Mutex
	m map[string]*Engine
}

func goldenEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	key := fmt.Sprintf("%+v", cfg)
	goldenEngines.Lock()
	defer goldenEngines.Unlock()
	if goldenEngines.m == nil {
		goldenEngines.m = map[string]*Engine{}
	}
	if e, ok := goldenEngines.m[key]; ok {
		return e
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("building golden engine %+v: %v", cfg, err)
	}
	goldenEngines.m[key] = e
	return e
}

func goldenPath(name string) string { return filepath.Join(goldenDir, name+".oict") }

// goldenArtifactPath locates the committed artifact of a golden case in
// the artifact corpus, which pins the same six engines.
func goldenArtifactPath(name string) string {
	return filepath.Join("..", "..", "internal", "artifact", "testdata", "golden", name+artifact.Ext)
}

// recordGolden runs the case's seeded episode with tracing on and
// returns the trace — the exact recipe a client would use to produce a
// replayable log.
func recordGolden(t testing.TB, gc goldenCase) *Trace {
	t.Helper()
	eng := goldenEngine(t, gc.cfg)
	x0, w, err := eng.DrawCase(gc.seed, gc.steps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartTrace(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepMany(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func readGolden(t testing.TB, name string) *Trace {
	t.Helper()
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("reading golden trace (regenerate with -update): %v", err)
	}
	tr, err := trace.Decode(b)
	if err != nil {
		t.Fatalf("decoding golden trace %s: %v", name, err)
	}
	return tr
}

// TestGoldenTraceConformance is the acceptance gate: replaying every
// committed golden trace under its original configuration must reproduce
// the decisions and states byte-identically, and re-recording the episode
// must reproduce the committed bytes exactly.
func TestGoldenTraceConformance(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			if *updateGolden {
				tr := recordGolden(t, gc)
				b, err := trace.Encode(tr)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(gc.name), b, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d steps, %d bytes)", goldenPath(gc.name), tr.Len(), len(b))
				return
			}
			tr := readGolden(t, gc.name)
			eng := goldenEngine(t, gc.cfg)

			// The fingerprint must invert to the recording configuration
			// (scenario and memory resolved to concrete values).
			got := ConfigFromTrace(tr)
			if got.Plant != gc.cfg.Plant || got.Scenario != eng.ScenarioID() ||
				got.Policy != eng.PolicyName() || got.Memory != eng.memory || got.Train != gc.cfg.Train {
				t.Errorf("fingerprint inverts to %+v, engine is %+v", got, eng.Config())
			}

			// Conformance replay: byte-identical decisions and states.
			rep, err := eng.Replay(tr, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Diff.Identical {
				t.Errorf("replay diverged: flips=%d first=%d divergeStep=%d maxDiv=%g energy %g vs %g",
					rep.Diff.DecisionFlips, rep.Diff.FirstFlip, rep.Diff.DivergeStep,
					rep.Diff.MaxStateDivergence, rep.Diff.EnergyA, rep.Diff.EnergyB)
			}
			if rep.Violations != 0 {
				t.Errorf("replay reported %d safety violations", rep.Violations)
			}

			// Re-recording the episode reproduces the committed bytes.
			b, err := trace.Encode(recordGolden(t, gc))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(want) {
				t.Errorf("re-recorded episode differs from committed golden bytes (%d vs %d bytes)", len(b), len(want))
			}
		})
	}
}

// TestFreshEnginesReproduceGoldenArtifacts: an engine built from scratch
// (set synthesis and, for DRL, training) encodes to the committed
// artifact byte for byte. This pins what the trace corpus does not: the
// trained weights, the encoder's normalization bounds, the reward history
// and every compiled set.
func TestFreshEnginesReproduceGoldenArtifacts(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			a, err := goldenEngine(t, gc.cfg).Artifact()
			if err != nil {
				t.Fatal(err)
			}
			b, err := EncodeArtifact(a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenArtifactPath(gc.name))
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(want) {
				t.Errorf("fresh engine's artifact differs from committed golden bytes (%d vs %d bytes)", len(b), len(want))
			}
		})
	}
}

// TestGoldenTracesAuditClean: every committed golden trace passes the
// offline auditor with zero findings — the recorded runtime evidence is
// consistent with the declared model and Theorem 1.
func TestGoldenTracesAuditClean(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			tr := readGolden(t, gc.name)
			rep, err := goldenEngine(t, gc.cfg).AuditTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean {
				t.Errorf("audit findings on golden trace: %+v", rep.Findings)
			}
			if rep.Steps != tr.Len() {
				t.Errorf("audited %d steps, trace has %d", rep.Steps, tr.Len())
			}
		})
	}
}

// TestCorruptedTraceAuditFindings pins the auditor's sensitivity: each
// deliberate corruption of a golden trace yields exactly the expected
// finding kinds — no more (spurious findings would drown real ones), no
// fewer (a miss is a hole in the audit trail).
func TestCorruptedTraceAuditFindings(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	norm1 := func(u []float64) float64 {
		s := 0.0
		for _, v := range u {
			if v < 0 {
				s -= v
			} else {
				s += v
			}
		}
		return s
	}
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			tr := readGolden(t, gc.name)
			eng := goldenEngine(t, gc.cfg)

			kinds := func(tr *Trace) []string {
				rep, err := eng.AuditTrace(tr)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[string]bool{}
				for _, f := range rep.Findings {
					seen[f.Kind] = true
				}
				out := make([]string, 0, len(seen))
				for k := range seen {
					out = append(out, k)
				}
				sort.Strings(out)
				return out
			}
			expect := func(name string, got, want []string) {
				t.Helper()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: finding kinds %v, want %v", name, got, want)
				}
			}

			// Wrong energy: exactly the accounting finding.
			c := tr.Clone()
			c.Energy += 1
			expect("wrong energy", kinds(c), []string{"energy-mismatch"})

			// Out-of-W disturbance: the recorded w leaves the declared set
			// *and* no longer explains the recorded transition.
			c = tr.Clone()
			c.Steps[0].W[0] += 1e6
			expect("out-of-W disturbance", kinds(c),
				[]string{"dynamics-mismatch", "out-of-model-disturbance"})

			// Flipped decision: claim a skip on a step that actually
			// actuated (unforced, inside X', u ≠ 0) — exactly the
			// skip-actuated finding.
			c = tr.Clone()
			flip := -1
			for i := range c.Steps {
				st := &c.Steps[i]
				if st.Ran && !st.Forced && st.Level == 0 && norm1(st.U) > 1e-9 {
					flip = i
					break
				}
			}
			if flip < 0 {
				// A learned policy may never have run by choice; the
				// always-run traces always expose a candidate.
				if gc.cfg.Policy == PolicyAlwaysRun {
					t.Fatalf("no unforced actuated step inside X' to flip in %s", gc.name)
				}
				return
			}
			c.Steps[flip].Ran = false
			expect("flipped decision", kinds(c), []string{"skip-actuated"})
		})
	}
}
