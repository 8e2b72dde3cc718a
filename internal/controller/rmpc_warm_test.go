package controller

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"oic/internal/lp"
	"oic/internal/mat"
)

// planCost evaluates the Eq. 5 horizon objective of an input sequence via
// the nominal (disturbance-free) rollout:
// Σ_{k=1..N−1} P·‖x(k)−XRef‖₁ + Σ_{k=0..N−1} Q·‖u(k)−URef‖₁.
func planCost(r *RMPC, x0 mat.Vec, seq []mat.Vec) float64 {
	x := x0.Clone()
	cost := 0.0
	for k := 0; k < r.cfg.Horizon; k++ {
		cost += r.cfg.InputWeight * seq[k].Sub(r.cfg.URef).Norm1()
		x = r.sys.A.MulVec(x).Add(r.sys.B.MulVec(seq[k])).Add(r.sys.C)
		if k+1 < r.cfg.Horizon {
			cost += r.cfg.StateWeight * x.Sub(r.cfg.XRef).Norm1()
		}
	}
	return cost
}

// checkPlanFeasible asserts the sequence satisfies the horizon program's
// constraints: u(k) ∈ U, the nominal x(k) in the tightened sets, and the
// terminal state in Xt.
func checkPlanFeasible(t *testing.T, r *RMPC, x0 mat.Vec, seq []mat.Vec) {
	t.Helper()
	n := r.cfg.Horizon
	x := x0.Clone()
	for k := 0; k < n; k++ {
		if !r.sys.U.Contains(seq[k], 1e-6) {
			t.Fatalf("u(%d) = %v outside U", k, seq[k])
		}
		x = r.sys.A.MulVec(x).Add(r.sys.B.MulVec(seq[k])).Add(r.sys.C)
		if k+1 < n {
			if !r.tightened[k+1].Contains(x, 1e-6) {
				t.Fatalf("nominal x(%d) = %v outside X(%d)", k+1, x, k+1)
			}
		}
	}
	if !r.terminal.Contains(x, 1e-6) {
		t.Fatalf("terminal state %v outside Xt", x)
	}
}

// TestRMPCWarmResolveMatchesColdAlongTrajectory drives the warm-started
// controller along simulated closed-loop trajectories and, at every step,
// cross-checks it against a cold resolve from a fresh workspace: both must
// report the same feasibility, achieve the same optimal objective within
// 1e-7, and return constraint-satisfying plans. This is the controller-
// level half of the warm/cold equivalence property (the LP-level half
// lives in internal/lp).
func TestRMPCWarmResolveMatchesColdAlongTrajectory(t *testing.T) {
	r := accRMPC(t) // one handle reused: cold first solve, warm afterwards
	sys := accSystem()
	feas, err := r.FeasibleSet()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	starts, err := feas.Sample(4, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	for _, x0 := range starts {
		x := x0.Clone()
		for step := 0; step < 30; step++ {
			warmSeq, warmErr := r.ComputeSequence(x)
			cold := r.ForSession().(*RMPC) // fresh workspace: guaranteed cold solve
			coldSeq, coldErr := cold.ComputeSequence(x)
			if (warmErr == nil) != (coldErr == nil) {
				t.Fatalf("step %d at %v: warm err %v, cold err %v", step, x, warmErr, coldErr)
			}
			if warmErr != nil {
				t.Fatalf("step %d: infeasible inside the feasible set at %v: %v", step, x, warmErr)
			}
			jw := planCost(r, x, warmSeq)
			jc := planCost(r, x, coldSeq)
			if d := math.Abs(jw - jc); d > 1e-7*(1+math.Abs(jc)) {
				t.Fatalf("step %d at %v: warm objective %v vs cold %v (Δ=%g)", step, x, jw, jc, d)
			}
			checkPlanFeasible(t, r, x, warmSeq)

			w := mat.Vec{2*rng.Float64() - 1, 0}
			x = sys.Step(x, warmSeq[0], w)
		}
	}
	// The chain above must actually have exercised the warm path.
	stats := r.ws.sv.Stats()
	if stats.Warm == 0 {
		t.Fatalf("warm path never taken (stats %+v)", stats)
	}
}

// TestRMPCForSessionIndependence verifies that session handles share the
// compiled program but not solve state: interleaved computations on two
// handles give the same answers as isolated ones.
func TestRMPCForSessionIndependence(t *testing.T) {
	r := accRMPC(t)
	h1 := r.ForSession().(*RMPC)
	h2 := r.ForSession().(*RMPC)
	if h1.prog != r.prog || h2.prog != r.prog {
		t.Fatal("session handles must share the compiled program")
	}
	if h1.ws == r.ws || h2.ws == r.ws || h1.ws == h2.ws {
		t.Fatal("session handles must own their workspaces")
	}
	xa := mat.Vec{150, 40}
	xb := mat.Vec{140, 45}
	ua1, err := h1.Compute(xa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Compute(xb); err != nil { // pollute h2's warm state
		t.Fatal(err)
	}
	ua2, err := h1.Compute(xa)
	if err != nil {
		t.Fatal(err)
	}
	if !ua1.Equal(ua2, 1e-9) {
		t.Fatalf("handle state leaked across sessions: %v vs %v", ua1, ua2)
	}
}

// TestRMPCComputeMatchesSequenceHead pins the Compute fast path: it must
// return exactly the first element of ComputeSequence without the tail.
func TestRMPCComputeMatchesSequenceHead(t *testing.T) {
	r := accRMPC(t)
	x := mat.Vec{145, 42}
	u, err := r.Compute(x)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := r.ComputeSequence(x)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(seq[0], 1e-12) {
		t.Fatalf("Compute %v != sequence head %v", u, seq[0])
	}
}

// rhsAt fills a copy of the horizon LP's right-hand side at state x.
func rhsAt(t *testing.T, r *RMPC, x mat.Vec) []float64 {
	t.Helper()
	if _, err := r.solveAt(x); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), r.ws.rhs...)
}

// TestRMPCWarmSolveAllocatesNothing pins the hot path's allocation
// contract: once a workspace has solved cold, warm resolves — including
// ones that need dual-simplex pivots — allocate nothing.
func TestRMPCWarmSolveAllocatesNothing(t *testing.T) {
	r := accRMPC(t)
	rhsA := rhsAt(t, r, mat.Vec{150, 40})
	rhsB := rhsAt(t, r, mat.Vec{135, 47})
	sv := r.ws.sv
	flip := false
	allocs := testing.AllocsPerRun(200, func() {
		flip = !flip
		rhs := rhsA
		if flip {
			rhs = rhsB
		}
		if sv.SolveRHS(rhs).Status != lp.Optimal {
			t.Fatal("warm resolve not optimal")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SolveRHS allocates %v times per call, want 0", allocs)
	}
	if st := sv.Stats(); st.Warm < 200 || st.WarmPivots == 0 {
		t.Fatalf("resolves did not exercise warm pivots: %+v", st)
	}
}

// TestRMPCWorkspaceFootprint bounds what a forked κ workspace keeps
// resident after a cold and a warm solve: the condensed tableau of m rows
// × (nonbasic columns + rhs) plus O(m + columns) vectors. Every variable of
// the horizon LP is nonnegative and every row is ≤, so the program has m
// rows and n + m columns, n of them nonbasic. The phase-1 scratch lives in
// a shared pool and must not count.
func TestRMPCWorkspaceFootprint(t *testing.T) {
	r := accRMPC(t)
	rhsA := rhsAt(t, r, mat.Vec{150, 40})
	rhsB := rhsAt(t, r, mat.Vec{135, 47})
	sv := r.prog.solver
	m, n := sv.NumRows(), sv.NumVars()
	total := n + m
	const forks = 64
	keep := make([]*lp.Solver, forks)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle also empties the pools' victim caches
	runtime.ReadMemStats(&before)
	for i := range keep {
		f := sv.Fork()
		f.SolveRHS(rhsA)
		f.SolveRHS(rhsB)
		keep[i] = f
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	for _, f := range keep {
		if st := f.Stats(); st.Cold != 1 || st.Warm != 1 {
			t.Fatalf("fork did not solve cold then warm: %+v", st)
		}
	}
	words := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / forks / 8
	bound := float64(m*(total-m+1) + 8*(m+total))
	t.Logf("m=%d n=%d: %.0f words per workspace (bound %.0f)", m, n, words, bound)
	if words > bound {
		t.Fatalf("forked workspace holds %.0f words, want ≤ m·(total−m+1) + O(m+total) = %.0f", words, bound)
	}
}
