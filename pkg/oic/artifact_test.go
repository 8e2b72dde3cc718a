package oic

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"oic/internal/artifact"
	"oic/internal/trace"
)

// recordWith runs one seeded traced episode on eng — the same recipe as
// recordGolden, but against an arbitrary (e.g. artifact-loaded) engine.
func recordWith(t testing.TB, eng *Engine, seed int64, steps int) *Trace {
	t.Helper()
	x0, w, err := eng.DrawCase(seed, steps)
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

// loadedEngine round-trips eng through the full artifact pipeline:
// snapshot, encode, decode, load. Everything the loaded engine computes
// with has passed through the wire format.
func loadedEngine(t testing.TB, eng *Engine) *Engine {
	t.Helper()
	a, err := eng.Artifact()
	if err != nil {
		t.Fatalf("Artifact: %v", err)
	}
	b, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("EncodeArtifact: %v", err)
	}
	a2, err := DecodeArtifact(b)
	if err != nil {
		t.Fatalf("DecodeArtifact: %v", err)
	}
	le, err := LoadEngine(a2)
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	return le
}

// TestLoadEngineConformance is the tentpole acceptance gate: an engine
// loaded from its own encoded artifact replays every committed golden
// trace byte-identically and re-records the identical episode bytes —
// LoadEngine(Artifact(e)) is behaviorally indistinguishable from e while
// skipping set synthesis and DRL training entirely.
func TestLoadEngineConformance(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			built := goldenEngine(t, gc.cfg)
			loaded := loadedEngine(t, built)

			if got, want := loaded.Config().Fingerprint(), built.Config().Fingerprint(); got != want {
				t.Errorf("loaded fingerprint %q, want %q", got, want)
			}
			if loaded.PolicyName() != built.PolicyName() || loaded.ScenarioID() != built.ScenarioID() {
				t.Errorf("loaded identity %s/%s, want %s/%s",
					loaded.ScenarioID(), loaded.PolicyName(), built.ScenarioID(), built.PolicyName())
			}

			// Replay the committed golden trace on the loaded engine.
			tr := readGolden(t, gc.name)
			rep, err := loaded.Replay(tr, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Diff.Identical {
				t.Errorf("loaded engine diverges from golden trace: flips=%d first=%d divergeStep=%d maxDiv=%g",
					rep.Diff.DecisionFlips, rep.Diff.FirstFlip, rep.Diff.DivergeStep, rep.Diff.MaxStateDivergence)
			}

			// Re-record the episode on the loaded engine: byte-identical to
			// the committed corpus.
			b, err := trace.Encode(recordWith(t, loaded, gc.seed, gc.steps))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(want) {
				t.Errorf("loaded engine's episode differs from committed golden bytes (%d vs %d)", len(b), len(want))
			}

			// The loaded engine carries the full compiled state: skip budget
			// and (for DRL) training stats.
			wantMax, err := built.MaxSkipBudget()
			if err != nil {
				t.Fatal(err)
			}
			gotMax, err := loaded.MaxSkipBudget()
			if err != nil {
				t.Fatal(err)
			}
			if gotMax != wantMax {
				t.Errorf("max skip budget %d, want %d", gotMax, wantMax)
			}
			if gc.cfg.Policy == PolicyDRL && loaded.TrainStats().Episodes != built.TrainStats().Episodes {
				t.Errorf("train stats lost: %+v", loaded.TrainStats())
			}
		})
	}
}

// TestFingerprintCanonicalization pins the identity shared by the
// library, the oicd engine cache, and the artifact store: semantically
// equal configs fingerprint equal, distinct ones don't.
func TestFingerprintCanonicalization(t *testing.T) {
	base := Config{Plant: "acc"}
	same := []Config{
		{Plant: "acc", Policy: PolicyBangBang},
		{Plant: "acc", Scenario: "Fig.4"},
		{Plant: "acc", Memory: -3},
		{Plant: "acc", Train: TrainConfig{Episodes: 99}}, // non-DRL: training budget is irrelevant
	}
	for i, c := range same {
		if c.Fingerprint() != base.Fingerprint() {
			t.Errorf("config #%d fingerprint %q != base %q", i, c.Fingerprint(), base.Fingerprint())
		}
	}
	diff := []Config{
		{Plant: "thermo"},
		{Plant: "acc", Policy: PolicyAlwaysRun},
		{Plant: "acc", Scenario: "Ex.1"},
		{Plant: "acc", Policy: PolicyDRL, Train: TrainConfig{Episodes: 99}},
	}
	for i, c := range diff {
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("config #%d fingerprint collides with base: %q", i, base.Fingerprint())
		}
	}
	// Canonical is idempotent.
	c := Config{Plant: "acc", Memory: -1}.Canonical()
	if c != c.Canonical() {
		t.Errorf("Canonical not idempotent: %+v vs %+v", c, c.Canonical())
	}
}

// TestLoadEngineRejectsMismatch: internally inconsistent artifacts fail
// with typed errors instead of building a silently wrong engine.
func TestLoadEngineRejectsMismatch(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	eng := goldenEngine(t, goldenCases[1].cfg) // acc-drl
	fresh := func() *Artifact {
		a, err := eng.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	a := fresh()
	a.Policy = nil // DRL config without a policy snapshot
	if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
		t.Errorf("missing policy: got %v, want ErrArtifactMismatch", err)
	}

	a = fresh()
	a.Meta.Plant = "no-such-plant"
	if _, err := LoadEngine(a); err == nil {
		t.Error("unknown plant accepted")
	}

	a = fresh()
	// Break the skip chain's monotone nesting: S_2 ⊄ S_1 after scaling.
	if len(a.Chain) >= 2 {
		a.Chain[1] = a.Chain[0].Scale(10)
		if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
			t.Errorf("broken chain: got %v, want ErrArtifactMismatch", err)
		}
	}

	a = fresh()
	a.Policy.WScale = []float64{12345} // wrong normalization for this scenario
	if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
		t.Errorf("wrong policy bounds: got %v, want ErrArtifactMismatch", err)
	}
}

// withInputs returns a copy of p whose first layer takes n inputs: each
// row of the row-major weight matrix is truncated or zero-padded.
func withInputs(p *artifact.Policy, n int) *artifact.Policy {
	q := *p
	q.Sizes = append([]int(nil), p.Sizes...)
	q.Sizes[0] = n
	q.Weights = append([][]float64(nil), p.Weights...)
	c := p.Sizes[0]
	w := make([]float64, 0, p.Sizes[1]*n)
	for r := 0; r < p.Sizes[1]; r++ {
		row := make([]float64, n)
		copy(row, p.Weights[0][r*c:(r+1)*c])
		w = append(w, row...)
	}
	q.Weights[0] = w
	return &q
}

// TestLoadEngineRejectsMisfitPolicyBounds: a DRL artifact whose encoder
// bounds do not fit the plant (a state bound missing, or more
// disturbance scales than the plant has disturbance channels) is
// internally consistent, so it passes Validate; LoadEngine must still
// reject it, or the engine's first step indexes past the state or the
// disturbance.
func TestLoadEngineRejectsMisfitPolicyBounds(t *testing.T) {
	for _, name := range []string{"acc-drl", "thermo-drl", "orbit-drl"} {
		b, err := os.ReadFile(goldenArtifactPath(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, mut := range []string{"short XCenter", "long WScale"} {
			t.Run(fmt.Sprintf("%s/%s", name, mut), func(t *testing.T) {
				a, err := DecodeArtifact(b)
				if err != nil {
					t.Fatal(err)
				}
				p := a.Policy
				switch mut {
				case "short XCenter":
					p = withInputs(p, p.Sizes[0]-1)
					p.XCenter = p.XCenter[:len(p.XCenter)-1]
					p.XScale = p.XScale[:len(p.XScale)-1]
				case "long WScale":
					extra := a.NX + 1 - len(p.WScale)
					p = withInputs(p, p.Sizes[0]+p.Memory*extra)
					for i := 0; i < extra; i++ {
						p.WScale = append(p.WScale, 1)
					}
				}
				a.Policy = p
				if err := a.Validate(); err != nil {
					t.Fatalf("mutated artifact must stay self-consistent: %v", err)
				}
				if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
					t.Errorf("LoadEngine = %v, want ErrArtifactMismatch", err)
				}
			})
		}
	}
}

// TestArtifactSharesNoMutableState: editing a returned artifact's chain
// or reward history leaves the engine, and its next artifact, untouched.
func TestArtifactSharesNoMutableState(t *testing.T) {
	eng := goldenEngine(t, goldenCases[1].cfg) // acc-drl
	a, err := eng.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Chain) == 0 || len(a.Train.RewardHistory) == 0 {
		t.Fatal("acc-drl artifact lacks a chain or reward history")
	}
	chain0, reward0 := a.Chain[0], a.Train.RewardHistory[0]
	a.Chain[0] = a.Chain[0].Scale(10)
	a.Train.RewardHistory[0]++
	b, err := eng.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if b.Chain[0] != chain0 || b.Train.RewardHistory[0] != reward0 {
		t.Error("editing an artifact changed the engine it was taken from")
	}
}
