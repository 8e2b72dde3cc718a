package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential oracle: every test here runs the condensed Solver and
// the dense reference (ref_test.go) side by side on the same solve chain
// and requires identical statuses, objective and X bits, and SolveStats.

// oracleStep is one solve of a chain: SolveRHS when lo and hi are nil,
// SolveParams otherwise; reset calls ResetWarm on both solvers first.
type oracleStep struct {
	rhs    []float64
	lo, hi []float64
	reset  bool
}

// sameSolution reports the first difference between two solutions, or "".
func sameSolution(got, want *Solution) string {
	if got.Status != want.Status {
		return fmt.Sprintf("status %v, reference %v", got.Status, want.Status)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Sprintf("objective %v, reference %v", got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		return fmt.Sprintf("len(X) %d, reference %d", len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Sprintf("X[%d] %v, reference %v", j, got.X[j], want.X[j])
		}
	}
	return ""
}

// runOracle drives both solvers through steps and returns the condensed
// solver's final stats, failing t at the first disagreement. refactors
// counts the drift-guard refactorizations: cold solves that followed an
// optimal one without a reset or a warm fallback.
func runOracle(t testing.TB, label string, p *Problem, steps []oracleStep) (stats SolveStats, refactors int) {
	t.Helper()
	s := NewSolver(p)
	r := newRefSolver(p)
	wasOptimal := false
	for k, st := range steps {
		before := s.Stats()
		if st.reset {
			s.ResetWarm()
			r.ResetWarm()
		}
		var got, want *Solution
		if st.lo == nil && st.hi == nil {
			got, want = s.SolveRHS(st.rhs), r.SolveRHS(st.rhs)
		} else {
			var okG, okW bool
			got, okG = s.SolveParams(st.rhs, st.lo, st.hi)
			want, okW = r.SolveParams(st.rhs, st.lo, st.hi)
			if okG != okW {
				t.Fatalf("%s step %d: SolveParams ok %v, reference %v", label, k, okG, okW)
			}
			if !okG {
				continue
			}
		}
		if d := sameSolution(got, want); d != "" {
			t.Fatalf("%s step %d: %s", label, k, d)
		}
		gs, ws := s.Stats(), r.Stats()
		if gs != ws {
			t.Fatalf("%s step %d: stats %+v, reference %+v", label, k, gs, ws)
		}
		if wasOptimal && !st.reset && gs.Cold > before.Cold && gs.WarmFallbacks == before.WarmFallbacks {
			refactors++
		}
		wasOptimal = got.Status == Optimal
	}
	return s.Stats(), refactors
}

// randomOracleProgram builds a random program mixing LE/GE/EQ rows and
// free, lower-bounded, upper-only, boxed, and fixed variables. Integer
// coefficients make degenerate vertices common. Nothing keeps it feasible
// or bounded, so infeasible and unbounded programs occur too.
func randomOracleProgram(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(6)
	ints := rng.Intn(2) == 0
	val := func(scale float64) float64 {
		if ints {
			return float64(rng.Intn(7) - 3)
		}
		return rng.NormFloat64() * scale
	}
	p := NewProblem(n)
	c := make([]float64, n)
	for j := range c {
		c[j] = val(1)
	}
	p.SetObjective(c)
	for j := 0; j < n; j++ {
		lo := -1 - math.Abs(val(2))
		switch rng.Intn(5) {
		case 0: // free
		case 1:
			p.SetBounds(j, lo, math.Inf(1))
		case 2:
			p.SetBounds(j, math.Inf(-1), -lo)
		case 3:
			p.SetBounds(j, lo, lo+math.Abs(val(3)))
		default:
			p.SetBounds(j, lo, lo) // fixed: a degenerate upper row
		}
	}
	eqOK := rng.Intn(2) == 0
	m := rng.Intn(9)
	for i := 0; i < m; i++ {
		a := make([]float64, n)
		for j := range a {
			if rng.Intn(3) > 0 {
				a[j] = val(1)
			}
		}
		sense := LE
		switch k := rng.Intn(10); {
		case k < 3:
			sense = GE
		case k < 4 && eqOK:
			sense = EQ
		}
		p.AddConstraint(a, sense, val(2)+2)
	}
	return p
}

// randomOracleSteps perturbs p's right-hand sides (and sometimes its
// bounds, within their class) for a chain of solves.
func randomOracleSteps(rng *rand.Rand, p *Problem, count int) []oracleStep {
	base := make([]float64, p.NumRows())
	for i := range base {
		base[i] = p.rows[i].rhs
	}
	steps := make([]oracleStep, count)
	for k := range steps {
		st := &steps[k]
		st.rhs = make([]float64, len(base))
		for i := range base {
			st.rhs[i] = base[i]
			if rng.Intn(2) == 0 {
				st.rhs[i] += float64(rng.Intn(5) - 2)
			} else {
				st.rhs[i] += rng.NormFloat64() * 0.5
			}
			if rng.Intn(30) == 0 {
				st.rhs[i] -= 20
			}
		}
		if rng.Intn(5) == 0 {
			st.lo, st.hi = make([]float64, p.n), make([]float64, p.n)
			for j := 0; j < p.n; j++ {
				st.lo[j], st.hi[j] = p.Bounds(j)
				if !math.IsInf(st.lo[j], -1) {
					st.lo[j] += rng.Float64()
				}
				if !math.IsInf(st.hi[j], 1) {
					st.hi[j] -= rng.Float64()
				}
			}
		}
		st.reset = rng.Intn(25) == 0
	}
	return steps
}

// TestSolverMatchesReference is the differential property test over
// random programs and random warm chains of SolveRHS and SolveParams.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var tot SolveStats
	statuses := map[Status]int{}
	for trial := 0; trial < 1500; trial++ {
		p := randomOracleProgram(rng)
		st, _ := runOracle(t, fmt.Sprintf("trial %d", trial), p, randomOracleSteps(rng, p, 12))
		tot.Cold += st.Cold
		tot.Warm += st.Warm
		tot.WarmFallbacks += st.WarmFallbacks
		tot.WarmPivots += st.WarmPivots
		statuses[p.Solve().Status]++
	}
	// The chains must have exercised every path the oracle is meant to pin.
	if tot.Warm == 0 || tot.WarmPivots == 0 || tot.WarmFallbacks == 0 {
		t.Fatalf("warm paths not exercised: %+v", tot)
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[s] == 0 {
			t.Fatalf("no %v program generated (%v)", s, statuses)
		}
	}
}

// bealeProblem is Beale's classic degenerate program, on which Dantzig
// pricing with these tie rules cycles until the Bland switch.
func bealeProblem() *Problem {
	p := NewProblem(4)
	p.SetObjective([]float64{-0.75, 20, -0.5, 6})
	for j := 0; j < 4; j++ {
		p.SetBounds(j, 0, math.Inf(1))
	}
	p.AddConstraint([]float64{0.25, -8, -1, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -12, -0.5, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	return p
}

// TestSolverMatchesReferenceBland pins the Bland fallback: the cycling
// program must need more than blandTrip pivots, and both solvers must take
// exactly the same ones, cold and then warm.
func TestSolverMatchesReferenceBland(t *testing.T) {
	p := bealeProblem()
	steps := []oracleStep{
		{rhs: []float64{0, 0, 1}},
		{rhs: []float64{0, 0, 2}},
		{rhs: []float64{0.5, 0, 1}},
		{rhs: []float64{0, 0, 1}, reset: true},
	}
	st, _ := runOracle(t, "beale", p, steps)
	if st.ColdPivots <= blandTrip {
		t.Fatalf("Beale's program solved in %d cold pivots; it no longer trips Bland (stats %+v)", st.ColdPivots, st)
	}
	sol := NewSolver(p).Solve()
	if sol.Status != Optimal || math.Abs(sol.Objective+1.25) > 1e-9 {
		t.Fatalf("Beale optimum %v %v, want -1.25", sol.Status, sol.Objective)
	}
}

// TestSolverMatchesReferenceLongChain runs warm chains long enough to pass
// refactorEvery, so the drift-guard refactorization is compared too.
func TestSolverMatchesReferenceLongChain(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		var p *Problem
		var rhs0 []float64
		for p == nil || NewSolver(p).SolveRHS(rhs0).Status != Optimal {
			p, rhs0 = randomProblem(rng)
			for extra := 0; extra < 12; extra++ {
				a := make([]float64, p.NumVars())
				for j := range a {
					a[j] = rng.NormFloat64()
				}
				b := 0.5 + rng.Float64()
				p.AddConstraint(a, LE, b)
				rhs0 = append(rhs0, b)
			}
		}
		// Scaling every rhs by a positive factor keeps the origin
		// feasible, so the chain stays warm between refactorizations.
		steps := make([]oracleStep, 2000)
		for k := range steps {
			rhs := make([]float64, len(rhs0))
			for i := range rhs {
				rhs[i] = rhs0[i] * (0.25 + rng.Float64())
			}
			steps[k].rhs = rhs
		}
		st, refactors := runOracle(t, fmt.Sprintf("chain %d", trial), p, steps)
		if refactors == 0 {
			t.Fatalf("chain %d never reached a refactorization: %+v", trial, st)
		}
	}
}

// TestSolveStatsCountsFallbackPivots pins the fallback accounting: a warm
// attempt that pivots, finds the new rhs infeasible, and hands over to the
// cold path must count as a fallback and keep the pivots it spent.
func TestSolveStatsCountsFallbackPivots(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.SetBounds(0, 0, math.Inf(1))
	p.SetBounds(1, 0, math.Inf(1))
	p.AddConstraint([]float64{1, 1}, GE, 0)
	p.AddConstraint([]float64{1, 0}, LE, 1)
	p.AddConstraint([]float64{0, 1}, LE, 1)
	s := NewSolver(p)
	if sol := s.SolveRHS([]float64{0, 1, 1}); sol.Status != Optimal {
		t.Fatalf("first solve: %v", sol.Status)
	}
	if sol := s.SolveRHS([]float64{3, 1, 1}); sol.Status != Infeasible {
		t.Fatalf("x1+x2 ≥ 3 with x ≤ 1: status %v, want infeasible", sol.Status)
	}
	st := s.Stats()
	if st.Cold != 2 || st.Warm != 0 || st.WarmFallbacks != 1 || st.WarmPivots == 0 {
		t.Fatalf("stats %+v: want 2 cold, 0 warm, 1 fallback with its pivots counted", st)
	}
	runOracle(t, "fallback", p, []oracleStep{{rhs: []float64{0, 1, 1}}, {rhs: []float64{3, 1, 1}}})
}

// FuzzSolverMatchesReference decodes a small program and a chain of
// right-hand sides from the input and runs the differential oracle on it.
// Values are small integers and quarters, so programs are well scaled and
// often degenerate.
func FuzzSolverMatchesReference(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{4, 6, 1, 1, 3, 0, 200, 17, 99, 3, 5, 250, 1, 0, 0, 7, 33, 2, 128, 64, 9, 9, 1, 1, 4, 4})
	f.Add([]byte{5, 8, 3, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		small := func() float64 { return float64(int8(next())) / 4 }
		n := 1 + int(next())%6
		m := int(next()) % 10
		p := NewProblem(n)
		c := make([]float64, n)
		for j := range c {
			c[j] = small()
		}
		p.SetObjective(c)
		for j := 0; j < n; j++ {
			lo := -math.Abs(small())
			switch next() % 5 {
			case 1:
				p.SetBounds(j, lo, math.Inf(1))
			case 2:
				p.SetBounds(j, math.Inf(-1), -lo)
			case 3:
				p.SetBounds(j, lo, lo+math.Abs(small()))
			case 4:
				p.SetBounds(j, lo, lo)
			}
		}
		for i := 0; i < m; i++ {
			a := make([]float64, n)
			for j := range a {
				a[j] = float64(int(next()%7) - 3)
			}
			p.AddConstraint(a, Sense(next()%3), small())
		}
		var steps []oracleStep
		for len(steps) < 16 && pos < len(data) {
			rhs := make([]float64, m)
			for i := range rhs {
				rhs[i] = p.rows[i].rhs + small()
			}
			steps = append(steps, oracleStep{rhs: rhs, reset: next()%16 == 0})
		}
		if len(steps) == 0 {
			steps = append(steps, oracleStep{rhs: make([]float64, m)})
		}
		runOracle(t, "fuzz", p, steps)
	})
}
