package acc

import (
	"fmt"
	"math/rand"
	"slices"

	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/rl"
	"oic/internal/traffic"
)

// Plant adapts the ACC case study to the plant-agnostic harness. It is
// registered under the name "acc"; importing this package is enough to
// make it available to internal/exp and cmd/oic.
type Plant struct{}

func init() { plant.Register(Plant{}) }

// Name implements plant.Plant.
func (Plant) Name() string { return "acc" }

// Description implements plant.Plant.
func (Plant) Description() string {
	return "adaptive cruise control, the paper's Section IV case study (RMPC, fuel cost)"
}

// CostLabel implements plant.Plant.
func (Plant) CostLabel() string { return "fuel" }

// EpisodeSteps implements plant.Plant.
func (Plant) EpisodeSteps() int { return EpisodeSteps }

// Generic converts an ACC scenario to the plant-agnostic form.
func (sc Scenario) Generic() plant.Scenario {
	return plant.Scenario{
		ID:          sc.ID,
		Description: sc.Description,
		Detail:      fmt.Sprintf("v_f ∈ [%g, %g]", sc.VfMin, sc.VfMax),
	}
}

func toGeneric(scs []Scenario) []plant.Scenario {
	out := make([]plant.Scenario, len(scs))
	for i, sc := range scs {
		out[i] = sc.Generic()
	}
	return out
}

// Headline implements plant.Plant: the Fig. 4 sinusoid scenario.
func (Plant) Headline() plant.Scenario { return Fig4Scenario().Generic() }

// Ladders implements plant.Plant: the Table I range ladder (Fig. 5) and
// the regularity ladder (Fig. 6).
func (Plant) Ladders() []plant.Ladder {
	return []plant.Ladder{
		{
			Name:      "range",
			Title:     "DRL fuel saving vs v_f range (Ex.1–Ex.5)",
			PaperNote: "paper shape: savings increase as the range narrows (≈7%→13%)",
			Scenarios: toGeneric(Table1Scenarios()),
		},
		{
			Name:      "regularity",
			Title:     "DRL fuel saving vs regularity (Ex.6–Ex.10)",
			PaperNote: "paper shape: savings rise with regularity Ex.7→Ex.10; Ex.6 (pure random) is an outlier",
			Scenarios: toGeneric(RegularityScenarios()),
		},
	}
}

// scenarioByID resolves a generic scenario back to the full ACC scenario.
func scenarioByID(id string) (Scenario, error) {
	all := []Scenario{Fig4Scenario(), StopAndGoScenario()}
	all = append(all, Table1Scenarios()...)
	all = append(all, RegularityScenarios()...)
	for _, sc := range all {
		if sc.ID == id {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("acc: %w %q", plant.ErrUnknownScenario, id)
}

// Instantiate implements plant.Plant.
func (Plant) Instantiate(gsc plant.Scenario) (plant.Instance, error) {
	sc, err := scenarioByID(gsc.ID)
	if err != nil {
		return nil, err
	}
	m, err := ModelFor(sc)
	if err != nil {
		return nil, err
	}
	return &Instance{m: m, sc: sc}, nil
}

// Instance is an ACC model bound to one scenario's front-vehicle profile.
type Instance struct {
	m  *Model
	sc Scenario
}

// Model exposes the underlying case-study model.
func (in *Instance) Model() *Model { return in.m }

// System implements plant.Instance.
func (in *Instance) System() *lti.System { return in.m.Sys }

// Sets implements plant.Instance.
func (in *Instance) Sets() core.SafetySets { return in.m.Sets }

// Framework implements plant.Instance.
func (in *Instance) Framework(policy core.SkipPolicy, memory int) (*core.Framework, error) {
	return in.m.Framework(policy, memory)
}

// SampleInitialStates implements plant.Instance.
func (in *Instance) SampleInitialStates(n int, rng *rand.Rand) ([]mat.Vec, error) {
	return in.m.SampleInitialStates(n, rng)
}

// Disturbances implements plant.Instance: it draws a front-vehicle speed
// trace from the scenario profile and maps it through the disturbance model
// w = (δ·(v_f − VE), 0).
func (in *Instance) Disturbances(rng *rand.Rand, steps int) []mat.Vec {
	vf := in.sc.Profile.Generate(rng, steps)
	out := make([]mat.Vec, len(vf))
	for i, v := range vf {
		out[i] = in.m.Disturbance(v)
	}
	return out
}

// RunEpisode implements plant.Instance; Cost is fuel metered by the
// traffic package's default fuel model over the trajectory.
func (in *Instance) RunEpisode(policy core.SkipPolicy, x0 mat.Vec, w []mat.Vec) (*plant.Episode, error) {
	res, err := plant.RunFramework(in, policy, x0, w)
	if err != nil {
		return nil, fmt.Errorf("acc: RunEpisode: %w", err)
	}
	tr := res.Trajectory()
	speeds := make([]float64, len(tr.States))
	for i, x := range tr.States {
		speeds[i] = x[1]
	}
	cmds := make([]float64, len(tr.Inputs))
	for i, u := range tr.Inputs {
		cmds[i] = u[0]
	}
	fuel, energy := traffic.DefaultFuelModel().Episode(speeds, cmds, Delta)
	return &plant.Episode{Result: res, Cost: fuel, Energy: energy}, nil
}

// agentBounds are the paper's fixed DRL normalization bounds (Section
// IV): the state is centred on the setpoint (SRef, VE) and scaled by the
// half-ranges of the safe box, and only the disturbance's first channel
// is encoded, scaled by the design half-range WScale.
func (m *Model) agentBounds() (xCenter, xScale, wScale []float64) {
	return []float64{SRef, VE}, []float64{(SMax - SMin) / 2, (VMax - VMin) / 2}, []float64{m.WScale()}
}

// TrainSkipPolicy implements plant.Instance via the generic DRL trainer
// with the paper's fixed normalization bounds.
func (in *Instance) TrainSkipPolicy(cfg plant.TrainConfig) (core.SkipPolicy, rl.TrainStats, error) {
	return plant.TrainDRL(in, plant.EncoderFromBounds(in.m.agentBounds()), cfg, EpisodeSteps)
}

// InstantiateWithSets implements plant.SetsLoader: it binds the scenario
// to a model rebuilt around precompiled safety sets, skipping the
// feasible-set projection and safe-set synthesis entirely.
func (Plant) InstantiateWithSets(gsc plant.Scenario, sets core.SafetySets) (plant.Instance, error) {
	sc, err := scenarioByID(gsc.ID)
	if err != nil {
		return nil, err
	}
	m, err := NewModelWithSets(Config{VfMin: sc.VfMin, VfMax: sc.VfMax}, sets)
	if err != nil {
		return nil, err
	}
	return &Instance{m: m, sc: sc}, nil
}

// RestoreSkipPolicy implements plant.PolicyRestorer via the generic DRL
// restore. The stored normalization bounds must equal this model's: a
// mismatch means the snapshot was taken on a different v_f design range
// (or by a different encoder) and would silently misnormalize.
func (in *Instance) RestoreSkipPolicy(snap *plant.PolicySnapshot) (core.SkipPolicy, error) {
	if snap == nil {
		return nil, fmt.Errorf("acc: RestoreSkipPolicy: nil snapshot")
	}
	xCenter, xScale, wScale := in.m.agentBounds()
	if !slices.Equal(snap.XCenter, xCenter) || !slices.Equal(snap.XScale, xScale) || !slices.Equal(snap.WScale, wScale) {
		return nil, fmt.Errorf("acc: RestoreSkipPolicy: snapshot bounds %v/%v/%v, model expects %v/%v/%v",
			snap.XCenter, snap.XScale, snap.WScale, xCenter, xScale, wScale)
	}
	return plant.RestoreDRLPolicy(snap)
}
