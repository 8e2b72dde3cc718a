package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"oic/pkg/oic"
)

// kappaStats splits library Session.Step time by what the step did: a
// skip (monitor and policy only), the session's first κ (a cold LP
// solve), or a later κ (warm-started).
type kappaStats struct {
	skipN, coldN, warmN    int64
	skipNs, coldNs, warmNs int64
}

func (k *kappaStats) add(ran, first bool, d time.Duration) {
	switch {
	case !ran:
		k.skipN++
		k.skipNs += int64(d)
	case first:
		k.coldN++
		k.coldNs += int64(d)
	default:
		k.warmN++
		k.warmNs += int64(d)
	}
}

func (k *kappaStats) merge(o kappaStats) {
	k.skipN += o.skipN
	k.coldN += o.coldN
	k.warmN += o.warmN
	k.skipNs += o.skipNs
	k.coldNs += o.coldNs
	k.warmNs += o.warmNs
}

func perNs(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// metrics stores the controller and skip-path figures.
func (k *kappaStats) metrics(m map[string]float64) {
	m["controller.kappa_warm_us"] = perNs(k.warmNs, k.warmN) / 1e3
	m["controller.kappa_cold_us"] = perNs(k.coldNs, k.coldN) / 1e3
	m["oic.skip_ns"] = perNs(k.skipNs, k.skipN)
}

// libRun steps a fresh library session from x0 through n steps of the
// trace ws (cycled), calling visit after each step. It returns the
// session's final snapshot. This is the reference every served or fleet
// result is checked against.
func libRun(ctx context.Context, e *oic.Engine, x0 []float64, ws [][]float64, n int,
	visit func(t int, r *oic.StepResult, d time.Duration)) (oic.SessionInfo, error) {
	s, err := e.NewSession(x0)
	if err != nil {
		return oic.SessionInfo{}, err
	}
	defer s.Close()
	for t := 0; t < n; t++ {
		start := time.Now()
		r, err := s.Step(ctx, ws[t%len(ws)])
		d := time.Since(start)
		if err != nil {
			return oic.SessionInfo{}, fmt.Errorf("library step %d: %w", t, err)
		}
		visit(t, &r, d)
	}
	info := s.Info()
	if info.Violations != 0 {
		return info, fmt.Errorf("library reference: %d safety violations", info.Violations)
	}
	return info, nil
}

// bitsEqual compares float slices bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// setupLayers times the engine-side set-up calls for the traced ledger:
// NewEngine, LoadEngine of its decoded artifact, the first NewFleet
// (which compiles the S_k skip-budget chain) and Admit of n drawn cases;
// then it measures the session workspace. Engines share process-wide
// caches, so traced runs call it before anything else builds one: the
// build it times is cold, and the heap it probes is still small.
func setupLayers(ctx context.Context, cfg oic.Config, seed int64, stream uint64, n, steps int, m map[string]float64) error {
	t := time.Now()
	e, err := oic.NewEngine(cfg)
	if err != nil {
		return err
	}
	m["oic.engine_build_s"] = time.Since(t).Seconds()

	a, err := e.Artifact() // compiles the S_k chain on e; NewFleet is timed on a fresh engine
	if err != nil {
		return err
	}
	b, err := oic.EncodeArtifact(a)
	if err != nil {
		return err
	}
	t = time.Now()
	a2, err := oic.DecodeArtifact(b)
	if err != nil {
		return err
	}
	if _, err := oic.LoadEngine(a2); err != nil {
		return err
	}
	m["oic.engine_load_s"] = time.Since(t).Seconds()

	cases, err := drawCases(e, seed, stream, 0, n, steps)
	if err != nil {
		return err
	}
	if e, err = oic.NewEngine(cfg); err != nil {
		return err
	}
	t = time.Now()
	f, err := e.NewFleet(oic.FleetConfig{MaxSessions: n})
	if err != nil {
		return err
	}
	m["reach.skip_budget_s"] = time.Since(t).Seconds()

	t = time.Now()
	for _, c := range cases {
		if _, err := f.Admit(c.x0); err != nil {
			f.Close()
			return err
		}
	}
	m["oic.admit_us"] = us(time.Since(t)) / float64(n)
	f.Close()

	// A fresh engine has an empty workspace pool, so every probe session
	// allocates its own workspace.
	if e, err = oic.NewEngine(cfg); err != nil {
		return err
	}
	m["oic.workspace_kb"], err = workspaceKB(ctx, e, cases)
	return err
}

// workspaceProbe is how many sessions the workspace-size probe holds open.
const workspaceProbe = 64

// workspaceKB measures the live heap one session holds once its LP
// workspace exists: it opens workspaceProbe sessions, steps each until
// its first κ, and divides the heap growth.
func workspaceKB(ctx context.Context, e *oic.Engine, cases []episode) (float64, error) {
	base := liveHeap()
	open := make([]*oic.Session, 0, workspaceProbe)
	defer func() {
		for _, s := range open {
			s.Close()
		}
	}()
	for i := 0; i < workspaceProbe; i++ {
		c := cases[i%len(cases)]
		s, err := e.NewSession(c.x0)
		if err != nil {
			return 0, err
		}
		open = append(open, s)
		for t := 0; ; t++ {
			if t == len(c.w) {
				return 0, fmt.Errorf("workspace probe: case %d never ran κ", i)
			}
			r, err := s.Step(ctx, c.w[t])
			if err != nil {
				return 0, err
			}
			if r.Ran {
				break
			}
		}
	}
	kb := kbPer(base, liveHeap(), len(open))
	runtime.KeepAlive(cases) // live at base, so they must not be freed before the second reading
	return kb, nil
}
