package plant

import (
	"fmt"

	"oic/internal/core"
	"oic/internal/nn"
)

// DRLPolicyLabel is the canonical name of a trained DRL skipping policy
// — shared by the trainer and the artifact restore path so snapshots
// round-trip under one label.
const DRLPolicyLabel = "drl-ddqn"

// PolicySnapshot is the persistable form of a trained skipping policy:
// the Q-network's parameters plus the exact normalization bounds its
// encoder used during training. Restoring from these values (rather than
// re-deriving bounds from the safety sets) is what makes the restored
// policy bit-identical to the trained one even if set-derived defaults
// drift across versions.
type PolicySnapshot struct {
	Label   string
	Memory  int
	Net     *nn.Snapshot
	XCenter []float64
	XScale  []float64
	WScale  []float64
}

// SnapshottablePolicy is implemented by skipping policies that can
// serialize themselves into an artifact.
type SnapshottablePolicy interface {
	core.SkipPolicy
	PolicySnapshot() (*PolicySnapshot, error)
}

// SetsLoader is implemented by plants that can instantiate from
// precompiled safety sets, skipping the expensive offline synthesis
// (invariant-set computation, MPC feasible-set projection) entirely —
// the load half of the artifact pipeline.
type SetsLoader interface {
	Plant
	InstantiateWithSets(sc Scenario, sets core.SafetySets) (Instance, error)
}

// PolicyRestorer is implemented by instances that can rebuild a trained
// skipping policy from its snapshot without retraining.
type PolicyRestorer interface {
	Instance
	RestoreSkipPolicy(snap *PolicySnapshot) (core.SkipPolicy, error)
}

// RestoreDRLPolicy rebuilds the generic trained policy from a snapshot:
// the restored encoder uses the stored bounds verbatim and the restored
// network the stored parameters verbatim, so Decide computes the same
// float64s as the policy the snapshot was taken from. Every plant
// implements RestoreSkipPolicy by delegating here.
func RestoreDRLPolicy(snap *PolicySnapshot) (core.SkipPolicy, error) {
	if snap == nil {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: nil snapshot")
	}
	if snap.Label != DRLPolicyLabel {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: unknown policy label %q", snap.Label)
	}
	if snap.Memory < 1 {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: memory %d < 1", snap.Memory)
	}
	if len(snap.XCenter) == 0 || len(snap.XScale) != len(snap.XCenter) || len(snap.WScale) == 0 {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: bad normalization bounds (%d/%d/%d)",
			len(snap.XCenter), len(snap.XScale), len(snap.WScale))
	}
	net, err := nn.FromSnapshot(snap.Net)
	if err != nil {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: %w", err)
	}
	enc := EncoderFromBounds(snap.XCenter, snap.XScale, snap.WScale)
	if want := enc.StateDim(snap.Memory); net.Sizes[0] != want {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: network input %d, encoder expects %d", net.Sizes[0], want)
	}
	if net.Sizes[len(net.Sizes)-1] != 2 {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: network has %d outputs, want 2", net.Sizes[len(net.Sizes)-1])
	}
	return trainedPolicy{net: net, enc: enc, memory: snap.Memory}, nil
}
