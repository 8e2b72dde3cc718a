package oic

import (
	"errors"
	"fmt"
	"slices"

	"oic/internal/artifact"
	"oic/internal/core"
	"oic/internal/nn"
	"oic/internal/plant"
	"oic/internal/reach"
	"oic/internal/rl"
	"oic/internal/trace"
)

// Artifact is the persisted form of a compiled engine (DESIGN.md §9):
// the safety-set polytopes, the S_k skip chain, the trained policy
// network with its normalization bounds, the training statistics, and
// the canonical config fingerprint. Engine.Artifact produces one;
// LoadEngine turns one back into a serving engine without recompiling
// sets or retraining, with byte-identical behavior.
type Artifact = artifact.Artifact

// ArtifactStore is the content-addressed on-disk artifact catalogue
// (key = config fingerprint + format version) with hit/miss/corrupt
// accounting.
type ArtifactStore = artifact.Store

// ArtifactStoreStats snapshots an ArtifactStore's counters.
type ArtifactStoreStats = artifact.StoreStats

// ErrArtifactMismatch reports an artifact whose contents are internally
// inconsistent with the engine it claims to reconstruct (wrong
// dimensions, missing policy for a DRL config, fingerprint mismatch).
var ErrArtifactMismatch = errors.New("oic: artifact does not match its configuration")

// ErrArtifactUnsupported reports a plant that cannot participate in the
// artifact pipeline (it does not implement set loading or policy
// restore).
var ErrArtifactUnsupported = errors.New("oic: plant does not support artifact loading")

// OpenArtifactStore opens (creating if needed) the artifact store rooted
// at dir.
func OpenArtifactStore(dir string) (*ArtifactStore, error) { return artifact.OpenStore(dir) }

// EncodeArtifact serializes an artifact into the canonical binary form
// (Encode(DecodeArtifact(b)) == b for every valid b).
func EncodeArtifact(a *Artifact) ([]byte, error) { return artifact.Encode(a) }

// DecodeArtifact parses a canonical binary artifact, rejecting malformed
// input (bad magic/version, dimension and length inconsistencies,
// checksum failures) without unbounded allocation.
func DecodeArtifact(b []byte) (*Artifact, error) { return artifact.Decode(b) }

// Canonical resolves the defaults NewEngine would apply, so semantically
// identical configurations compare (and fingerprint) equal: empty policy
// means bang-bang, empty scenario means the plant's headline, training
// parameters only matter for the DRL policy, and a memory equal to the
// untrained-policy default (or any non-positive value) folds to 0.
// Canonical is idempotent; an unknown plant leaves the scenario empty
// (NewEngine will reject it with a better error).
func (c Config) Canonical() Config {
	if c.Policy == "" {
		c.Policy = PolicyBangBang
	}
	if c.Policy != PolicyDRL {
		c.Train = TrainConfig{}
	}
	// Memory ≤ 0 and the explicit default are the same engine for every
	// policy: untrained policies resolve to DefaultMemory, and DRL
	// training folds Memory 0 → DefaultMemory before building the encoder.
	if c.Memory < 0 || c.Memory == plant.DefaultMemory {
		c.Memory = 0
	}
	if c.Scenario == "" {
		if p, err := plant.Get(c.Plant); err == nil {
			c.Scenario = p.Headline().ID
		}
	}
	return c
}

// Fingerprint returns the canonical engine identity string shared by the
// library, the oicd engine cache, and the artifact store: two configs
// with equal fingerprints build behaviorally identical engines.
func (c Config) Fingerprint() string {
	c = c.Canonical()
	return fmt.Sprintf("%s|%s|%s|m%d|e%d|s%d|seed%d",
		c.Plant, c.Scenario, c.Policy, c.Memory,
		c.Train.Episodes, c.Train.Steps, c.Train.Seed)
}

// ConfigFromArtifact inverts an artifact's fingerprint into the canonical
// engine configuration it was compiled from — LoadEngine(a) and
// NewEngine(ConfigFromArtifact(a)) produce behaviorally identical
// engines.
func ConfigFromArtifact(a *Artifact) Config {
	return Config{
		Plant:    a.Meta.Plant,
		Scenario: a.Meta.Scenario,
		Policy:   a.Meta.Policy,
		Memory:   a.Meta.Memory,
		Train: TrainConfig{
			Episodes: a.Meta.TrainEpisodes,
			Steps:    a.Meta.TrainSteps,
			Seed:     a.Meta.TrainSeed,
		},
	}
}

// Artifact serializes the engine's compiled state: the safety sets, the
// S_k chain (compiled on demand if the lazy oracle has not run yet), the
// trained policy snapshot for PolicyDRL, the training statistics, and
// the canonical config fingerprint. The returned artifact shares no
// mutable state with the engine and is safe to encode or store from any
// goroutine.
func (e *Engine) Artifact() (*Artifact, error) {
	sb, err := e.skipBudgetOracle()
	if err != nil {
		return nil, err
	}
	cfg := e.cfg.Canonical()
	sets := e.inst.Sets()
	a := &Artifact{
		Version: artifact.Version,
		NX:      e.NX(),
		NU:      e.NU(),
		Meta: trace.Meta{
			Plant:         cfg.Plant,
			Scenario:      cfg.Scenario,
			Policy:        cfg.Policy,
			Memory:        cfg.Memory,
			TrainEpisodes: cfg.Train.Episodes,
			TrainSteps:    cfg.Train.Steps,
			TrainSeed:     cfg.Train.Seed,
		},
		Sets:  artifact.Sets{X: sets.X, XI: sets.XI, XPrime: sets.XPrime},
		Chain: slices.Clone(sb.Sets()),
		Train: artifact.TrainStats{
			Episodes:      e.train.Episodes,
			TotalSteps:    e.train.TotalSteps,
			MeanReward:    e.train.MeanReward,
			RewardHistory: slices.Clone(e.train.RewardHistory),
			FinalEpsilon:  e.train.FinalEpsilon,
			FinalLossEMA:  e.train.FinalLossEMA,
		},
	}
	if cfg.Policy == PolicyDRL {
		sp, ok := e.policy.(plant.SnapshottablePolicy)
		if !ok {
			return nil, fmt.Errorf("%w: %s's trained policy is not snapshottable", ErrArtifactUnsupported, cfg.Plant)
		}
		snap, err := sp.PolicySnapshot()
		if err != nil {
			return nil, fmt.Errorf("oic: snapshotting %s policy: %w", cfg.Plant, err)
		}
		a.Policy = &artifact.Policy{
			Label:   snap.Label,
			Memory:  snap.Memory,
			Sizes:   snap.Net.Sizes,
			Weights: snap.Net.Weights,
			Biases:  snap.Net.Biases,
			XCenter: snap.XCenter,
			XScale:  snap.XScale,
			WScale:  snap.WScale,
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// LoadEngine reconstructs a serving engine from a persisted artifact,
// skipping the two expensive halves of NewEngine entirely: the safety
// sets come from the artifact instead of the invariant-set/feasible-set
// synthesis, and the skipping policy is restored from its snapshot
// instead of retrained. The loaded engine is byte-identical in behavior
// to the engine the artifact was taken from — identical decisions,
// states, and recorded traces — because every float64 it computes with
// (set halfspaces, network parameters, normalization bounds) round-trips
// exactly through the codec.
func LoadEngine(a *Artifact) (*Engine, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	cfg := ConfigFromArtifact(a)
	p, err := plant.Get(cfg.Plant)
	if err != nil {
		return nil, err
	}
	sc, err := plant.FindScenario(p, cfg.Scenario)
	if err != nil {
		return nil, err
	}
	sl, ok := p.(plant.SetsLoader)
	if !ok {
		return nil, fmt.Errorf("%w: %s cannot instantiate from precompiled sets", ErrArtifactUnsupported, cfg.Plant)
	}
	inst, err := sl.InstantiateWithSets(sc, core.SafetySets{X: a.Sets.X, XI: a.Sets.XI, XPrime: a.Sets.XPrime})
	if err != nil {
		return nil, err
	}
	if inst.System().NX() != a.NX || inst.System().NU() != a.NU {
		return nil, fmt.Errorf("%w: artifact dims %d×%d, plant %s is %d×%d",
			ErrArtifactMismatch, a.NX, a.NU, cfg.Plant, inst.System().NX(), inst.System().NU())
	}
	if len(a.Chain) > 0 {
		if err := reach.ValidateSkipChain(a.Chain, 1e-9); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrArtifactMismatch, err)
		}
	}
	e := &Engine{cfg: cfg, plant: p, scenario: sc, inst: inst}

	switch cfg.Policy {
	case PolicyAlwaysRun:
		e.policy = core.AlwaysRun{}
	case PolicyBangBang:
		e.policy = core.BangBang{}
	case PolicyDRL:
		if a.Policy == nil {
			return nil, fmt.Errorf("%w: DRL config but no policy snapshot", ErrArtifactMismatch)
		}
		// The encoder normalizes every state coordinate and at most one
		// scale per disturbance channel; bounds that do not fit the plant
		// would index past x or w on the first step.
		if len(a.Policy.XCenter) != a.NX || len(a.Policy.WScale) < 1 || len(a.Policy.WScale) > a.NX {
			return nil, fmt.Errorf("%w: policy bounds cover %d state and %d disturbance channels, plant has %d",
				ErrArtifactMismatch, len(a.Policy.XCenter), len(a.Policy.WScale), a.NX)
		}
		pr, ok := inst.(plant.PolicyRestorer)
		if !ok {
			return nil, fmt.Errorf("%w: %s cannot restore a trained policy", ErrArtifactUnsupported, cfg.Plant)
		}
		pol, err := pr.RestoreSkipPolicy(&plant.PolicySnapshot{
			Label:  a.Policy.Label,
			Memory: a.Policy.Memory,
			Net: &nn.Snapshot{
				Sizes:   a.Policy.Sizes,
				Weights: a.Policy.Weights,
				Biases:  a.Policy.Biases,
			},
			XCenter: a.Policy.XCenter,
			XScale:  a.Policy.XScale,
			WScale:  a.Policy.WScale,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrArtifactMismatch, err)
		}
		e.policy = pol
		e.train = rl.TrainStats{
			Episodes:      a.Train.Episodes,
			TotalSteps:    a.Train.TotalSteps,
			MeanReward:    a.Train.MeanReward,
			RewardHistory: a.Train.RewardHistory,
			FinalEpsilon:  a.Train.FinalEpsilon,
			FinalLossEMA:  a.Train.FinalLossEMA,
		}
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownPolicy, cfg.Policy)
	}

	e.memory = cfg.Memory
	if e.memory <= 0 {
		e.memory = plant.PolicyMemory(e.policy)
	} else if mp, ok := e.policy.(plant.MemoryPolicy); ok && mp.PolicyMemory() > 0 && mp.PolicyMemory() != e.memory {
		return nil, fmt.Errorf("%w: config memory %d conflicts with the policy's trained window %d",
			ErrBadDimension, e.memory, mp.PolicyMemory())
	}
	fw, err := inst.Framework(e.policy, e.memory)
	if err != nil {
		return nil, err
	}
	e.fw = fw
	e.zeroW = make([]float64, inst.System().NX())

	// Prefill the lazy skip-budget oracle from the persisted chain so
	// SkipBudget and fleets never recompute it either.
	e.sbOnce.Do(func() { e.sb = reach.BudgetFromChain(a.Chain) })
	return e, nil
}
