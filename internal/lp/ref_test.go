package lp

import "math"

// This file is a test-only reference: the dense full-tableau solver that
// the condensed Solver replaced, kept verbatim apart from renamed
// identifiers and one deliberate edit — solve counts the pivots of a warm
// attempt that falls back to cold (SolveStats.WarmFallbacks), so its
// counters are comparable with the production solver's. The differential
// tests in oracle_test.go require the two to agree bit for bit.

// refProgram is the immutable compiled form of a Problem: everything about
// the standard-form conversion that does not depend on the right-hand
// sides or the bound values. Solvers forked from one compile share it.
type refProgram struct {
	n  int // original variables
	m0 int // original constraint rows
	m  int // total rows = m0 + len(uppers)

	maps   []varMap
	class  []boundClass
	uppers []upperRow

	ncols  int // structural (variable) columns
	total  int // ncols + slack columns
	stride int // total + m + 1: flat tableau row stride (max artificials + rhs)

	rows     []row     // compiled copy of the original rows (coeffs shared, immutable)
	sf       []float64 // m × total flat standard-form matrix, slack entries included
	slackCol []int     // per row: its slack column, or −1 (EQ row)
	slackSgn []float64 // per row: +1 (LE / upper), −1 (GE), 0 (EQ)
	allSlack bool      // every row has a slack column: warm starts possible

	cost  []float64 // standard-form objective (len total)
	c     []float64 // original objective
	lower []float64 // compiled bounds
	upper []float64
}

// refSolver is a compiled Problem plus a reusable solve workspace. It is the
// allocation-free resolve engine: after the first solve, subsequent solves
// with new parameters reuse every buffer and warm-start from the previous
// optimal basis.
//
// A refSolver snapshots the Problem at newRefSolver time; later mutations of the
// Problem are not seen. Solvers are not safe for concurrent use — use
// Fork to give each goroutine (or each deterministic call chain) its own
// workspace over the shared compiled form.
type refSolver struct {
	p *refProgram

	// Per-solve parameter bounds (active only while paramBounds is set).
	lo, hi      []float64
	paramBounds bool

	// Workspace (lazily allocated, then reused).
	shift []float64 // current shift per variable, derived from lo/hi
	b     []float64 // standard-form rhs (shift-adjusted, unnormalized)
	newb  []float64 // candidate warm rhs column

	t     []float64 // m × stride flat tableau
	basis []int
	z     []float64 // reduced-cost row (phase 2), kept across warm solves

	colRow  []int // cold-start unit-column scan
	colOnes []int
	basisOf []int
	blocked []bool

	// Warm-start state.
	warm   bool // tableau/basis/z hold an optimal basis for the compiled cost
	nart   int  // artificial columns in the stored tableau
	rhsCol int  // rhs column index in the stored tableau (= total + nart)
	pivots int  // pivots since the last cold solve (drift guard)

	y   []float64 // standard-form solution
	sol Solution  // reused result; sol.X aliases the x buffer below
	x   []float64

	stats SolveStats
}

// Stats returns the solve-path counters accumulated since construction or
// Fork.
func (s *refSolver) Stats() SolveStats { return s.stats }

// newRefSolver compiles p into a parametric solver. The problem's rows,
// objective, and bounds are snapshotted; solve-time parameters override
// the right-hand sides and bound values but not the structure.
func newRefSolver(p *Problem) *refSolver {
	pr := &refProgram{
		n:     p.n,
		m0:    len(p.rows),
		maps:  make([]varMap, p.n),
		class: make([]boundClass, p.n),
		c:     append([]float64(nil), p.c...),
		lower: append([]float64(nil), p.lower...),
		upper: append([]float64(nil), p.upper...),
	}

	// Variable maps, mirroring Problem.Solve's historical construction
	// order exactly (cold solves must agree bitwise with the original
	// from-scratch path).
	ncols := 0
	for j := 0; j < p.n; j++ {
		lo, hi := p.lower[j], p.upper[j]
		pr.class[j] = classOf(lo, hi)
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			pr.maps[j] = varMap{kind: 2, col: ncols, col2: ncols + 1}
			ncols += 2
		case !math.IsInf(lo, -1):
			pr.maps[j] = varMap{kind: 0, col: ncols, shift: lo}
			if !math.IsInf(hi, 1) {
				pr.uppers = append(pr.uppers, upperRow{v: j, col: ncols})
			}
			ncols++
		default: // upper bound only
			pr.maps[j] = varMap{kind: 1, col: ncols, shift: hi}
			ncols++
		}
	}
	pr.ncols = ncols
	pr.m = pr.m0 + len(pr.uppers)

	slackCols := 0
	for _, r := range p.rows {
		if r.sense != EQ {
			slackCols++
		}
	}
	slackCols += len(pr.uppers)
	pr.total = ncols + slackCols
	pr.stride = pr.total + pr.m + 1

	// Rows are snapshotted; coefficient slices are copied so later
	// Problem mutations cannot reach the compiled form.
	pr.rows = make([]row, pr.m0)
	for i, r := range p.rows {
		cc := append([]float64(nil), r.coeffs...)
		pr.rows[i] = row{coeffs: cc, sense: r.sense, rhs: r.rhs}
	}

	// Flat standard-form matrix with the slack entries in place.
	pr.sf = make([]float64, pr.m*pr.total)
	pr.slackCol = make([]int, pr.m)
	pr.slackSgn = make([]float64, pr.m)
	pr.allSlack = true
	slack := ncols
	for i, r := range pr.rows {
		ro := pr.sf[i*pr.total : (i+1)*pr.total]
		for j, coef := range r.coeffs {
			if coef == 0 {
				continue
			}
			m := pr.maps[j]
			switch m.kind {
			case 0:
				ro[m.col] += coef
			case 1:
				ro[m.col] -= coef
			case 2:
				ro[m.col] += coef
				ro[m.col2] -= coef
			}
		}
		switch r.sense {
		case LE:
			ro[slack] = 1
			pr.slackCol[i], pr.slackSgn[i] = slack, 1
			slack++
		case GE:
			ro[slack] = -1
			pr.slackCol[i], pr.slackSgn[i] = slack, -1
			slack++
		default:
			pr.slackCol[i] = -1
			pr.allSlack = false
		}
	}
	for k, ur := range pr.uppers {
		i := pr.m0 + k
		ro := pr.sf[i*pr.total : (i+1)*pr.total]
		ro[ur.col] = 1
		ro[slack] = 1
		pr.slackCol[i], pr.slackSgn[i] = slack, 1
		slack++
	}

	// Standard-form objective.
	pr.cost = make([]float64, pr.total)
	for j, coef := range p.c {
		if coef == 0 {
			continue
		}
		m := pr.maps[j]
		switch m.kind {
		case 0:
			pr.cost[m.col] += coef
		case 1:
			pr.cost[m.col] -= coef
		case 2:
			pr.cost[m.col] += coef
			pr.cost[m.col2] -= coef
		}
	}

	return &refSolver{p: pr}
}

// Fork returns a new refSolver over the same compiled refProgram with its own
// (lazily allocated) workspace and no warm-start state. Forks are how
// concurrent or determinism-sensitive callers share one compile: each
// fork's warm chain depends only on its own solve sequence.
func (s *refSolver) Fork() *refSolver { return &refSolver{p: s.p} }

// ResetWarm discards the warm-start state so the next solve takes the cold
// two-phase path, exactly as on a freshly forked solver, while keeping
// every allocated buffer. Pooled workspaces call it between logical
// sessions: a reused solver's solve chain is then bitwise identical to a
// fresh fork's, because the cold path rebuilds the tableau from the
// compiled form. The solve-path stats keep accumulating across resets.
func (s *refSolver) ResetWarm() {
	s.warm = false
	s.pivots = 0
}

// NumRows returns the number of original constraint rows (the length of
// the rhs parameter accepted by SolveRHS).
func (s *refSolver) NumRows() int { return s.p.m0 }

// NumVars returns the number of original decision variables.
func (s *refSolver) NumVars() int { return s.p.n }

// Solve resolves the compiled problem with its compiled right-hand sides
// and bounds. The returned Solution (and its X slice) is owned by the
// refSolver and only valid until the next solve on it.
func (s *refSolver) Solve() *Solution { return s.solve(nil) }

// SolveRHS resolves with new right-hand sides for the original constraint
// rows (len(rhs) must equal NumRows) and the compiled bounds. rhs is read,
// not retained. The returned Solution is owned by the refSolver and only
// valid until the next solve on it.
func (s *refSolver) SolveRHS(rhs []float64) *Solution {
	if len(rhs) != s.p.m0 {
		panic("lp: SolveRHS: rhs length mismatch")
	}
	return s.solve(rhs)
}

// SolveParams resolves with new right-hand sides and/or new variable
// bounds; nil keeps the compiled values. Bound changes must preserve each
// variable's boundedness class (which bounds are finite) — the compiled
// structure depends on it — otherwise ok is false and the caller must
// fall back to a fresh compile. A bound pair with lo > hi reports
// Infeasible directly.
func (s *refSolver) SolveParams(rhs, lo, hi []float64) (sol *Solution, ok bool) {
	p := s.p
	if lo == nil && hi == nil {
		return s.solve(rhs), true
	}
	if lo == nil {
		lo = p.lower
	}
	if hi == nil {
		hi = p.upper
	}
	if len(lo) != p.n || len(hi) != p.n {
		panic("lp: SolveParams: bounds length mismatch")
	}
	for j := 0; j < p.n; j++ {
		if classOf(lo[j], hi[j]) != p.class[j] {
			return nil, false
		}
		if lo[j] > hi[j] {
			s.sol = Solution{Status: Infeasible}
			return &s.sol, true
		}
	}
	if s.lo == nil {
		s.lo = make([]float64, p.n)
		s.hi = make([]float64, p.n)
	}
	copy(s.lo, lo)
	copy(s.hi, hi)
	s.paramBounds = true
	sol = s.solve(rhs)
	s.paramBounds = false // revert to compiled bounds for later solves
	return sol, true
}

// bounds returns the active bound slices for this solve.
func (s *refSolver) bounds() (lo, hi []float64) {
	if s.paramBounds {
		return s.lo, s.hi
	}
	return s.p.lower, s.p.upper
}

// prepare derives the per-solve shifts and the standard-form rhs b from
// the active parameters. The shift-adjustment accumulation order matches
// the historical Problem.Solve construction exactly.
func (s *refSolver) prepare(rhs []float64) {
	p := s.p
	if s.shift == nil {
		s.shift = make([]float64, p.n)
		s.b = make([]float64, p.m)
		s.newb = make([]float64, p.m)
		s.y = make([]float64, p.total)
		s.x = make([]float64, p.n)
	}
	lo, hi := s.bounds()
	for j := 0; j < p.n; j++ {
		switch p.maps[j].kind {
		case 0:
			s.shift[j] = lo[j]
		case 1:
			s.shift[j] = hi[j]
		default:
			s.shift[j] = 0
		}
	}
	for i, r := range p.rows {
		b := r.rhs
		if rhs != nil {
			b = rhs[i]
		}
		for j, coef := range r.coeffs {
			if coef == 0 {
				continue
			}
			if p.maps[j].kind != 2 {
				b -= coef * s.shift[j]
			}
		}
		s.b[i] = b
	}
	for k, ur := range p.uppers {
		s.b[p.m0+k] = hi[ur.v] - lo[ur.v]
	}
}

// solve runs the warm path when possible and falls back to the cold
// two-phase simplex otherwise.
func (s *refSolver) solve(rhs []float64) *Solution {
	p := s.p
	s.prepare(rhs)

	if p.m == 0 {
		// No constraints: the optimum is y = 0 unless some cost is
		// negative (unbounded below, since y ≥ 0 only).
		for _, c := range p.cost {
			if c < -eps {
				s.sol = Solution{Status: Unbounded}
				return &s.sol
			}
		}
		for i := range s.y {
			s.y[i] = 0
		}
		return s.extract()
	}

	if s.warm && p.allSlack && s.pivots < refactorEvery {
		p0 := s.pivots
		st, ok := s.resolveWarm()
		s.stats.WarmPivots += s.pivots - p0
		if ok {
			s.stats.Warm++
			if st != Optimal {
				s.warm = false
				s.sol = Solution{Status: st}
				return &s.sol
			}
			return s.extract()
		}
		s.stats.WarmFallbacks++
	}

	s.stats.Cold++
	st := s.solveCold()
	if st != Optimal {
		s.warm = false
		s.sol = Solution{Status: st}
		return &s.sol
	}
	s.warm = true
	return s.extract()
}

// extract reads the standard-form solution out of the tableau (or the y
// buffer for the trivial no-row case), reconstructs the original
// variables, and fills the reusable Solution.
func (s *refSolver) extract() *Solution {
	p := s.p
	if p.m > 0 {
		for i := range s.y {
			s.y[i] = 0
		}
		for i, j := range s.basis {
			if j < p.total {
				s.y[j] = s.t[i*p.stride+s.rhsCol]
			}
		}
	}
	obj := 0.0
	for j := 0; j < p.n; j++ {
		m := p.maps[j]
		switch m.kind {
		case 0:
			s.x[j] = s.shift[j] + s.y[m.col]
		case 1:
			s.x[j] = s.shift[j] - s.y[m.col]
		case 2:
			s.x[j] = s.y[m.col] - s.y[m.col2]
		}
		obj += p.c[j] * s.x[j]
	}
	s.sol = Solution{Status: Optimal, X: s.x, Objective: obj}
	return &s.sol
}

// resolveWarm attempts a warm resolve of the stored optimal basis with the
// current b. ok is false when the warm path cannot certify an answer and
// the caller must run the cold path.
func (s *refSolver) resolveWarm() (Status, bool) {
	p := s.p
	// New rhs column in the current basis: the slack block of the tableau
	// is B⁻¹·D·Σ for the row-sign normalization D and slack signs Σ, so
	// B⁻¹·D·b = T_slack·Σ·b — the normalization cancels.
	for i := 0; i < p.m; i++ {
		acc := 0.0
		ti := s.t[i*p.stride:]
		for k := 0; k < p.m; k++ {
			if bk := s.b[k]; bk != 0 {
				acc += ti[p.slackCol[k]] * p.slackSgn[k] * bk
			}
		}
		s.newb[i] = acc
	}
	infeasRows := 0
	for i := 0; i < p.m; i++ {
		s.t[i*p.stride+s.rhsCol] = s.newb[i]
		if s.newb[i] < -eps {
			infeasRows++
		}
	}
	if infeasRows > 0 {
		// The basis is primal-infeasible but still dual-feasible (the
		// reduced costs do not depend on b): repair with dual simplex —
		// unless the parameter jump invalidated a large fraction of the
		// rows. Dual repair needs roughly one pivot per infeasible row on
		// a dense warm tableau, while the cold solve's early pivots hit a
		// still-sparse one; past about a third of the rows the cold path
		// is cheaper (measured on the RMPC refProgram; trajectory-local
		// resolves have 0–2 infeasible rows and never take this exit).
		if infeasRows > p.m/3 {
			return Optimal, false
		}
		if st, ok := s.dualSimplex(); !ok || st != Optimal {
			return st, ok
		}
	}
	// A basic artificial at a nonzero level would mean the "optimum"
	// violates its row; only the cold phase-1 can decide feasibility then.
	for i, j := range s.basis {
		if j >= p.total && s.t[i*p.stride+s.rhsCol] > 1e-7 {
			return Optimal, false
		}
	}
	return Optimal, true
}

// dualSimplex restores primal feasibility of a dual-feasible basis after a
// rhs change. Entering columns are restricted to the non-artificial range.
// ok is false when the iteration cap is hit (cold fallback); an Infeasible
// status is trusted only after the cold path confirms it, so it is also
// reported with ok false.
func (s *refSolver) dualSimplex() (Status, bool) {
	p := s.p
	for iter := 0; iter < iterCap; iter++ {
		// Leaving row: most negative rhs.
		leave := -1
		worst := -eps
		for i := 0; i < p.m; i++ {
			if v := s.t[i*p.stride+s.rhsCol]; v < worst {
				worst = v
				leave = i
			}
		}
		if leave == -1 {
			return Optimal, true
		}
		// Entering column: dual ratio test over negative entries of the
		// leaving row; ties toward the smallest column index. The scan
		// stops at p.total — artificials must not re-enter.
		lr := s.t[leave*p.stride : leave*p.stride+p.total]
		enter := -1
		best := math.Inf(1)
		for j, a := range lr {
			if a >= -eps {
				continue
			}
			r := s.z[j] / -a
			if r < best-eps || (r < best+eps && (enter == -1 || j < enter)) {
				best = r
				enter = j
			}
		}
		if enter == -1 {
			// Dual unbounded ⇒ primal infeasible; let the cold path
			// confirm rather than trusting a drifted tableau.
			return Infeasible, false
		}
		s.pivot(leave, enter)
	}
	return IterLimit, false
}

// solveCold runs the two-phase simplex from scratch on the prepared b,
// replicating the historical from-scratch solve arithmetic on the flat
// reused tableau. On Optimal it leaves the tableau, basis, and phase-2
// reduced costs in place as the warm-start state.
func (s *refSolver) solveCold() Status {
	p := s.p
	if s.t == nil {
		s.t = make([]float64, p.m*p.stride)
		s.basis = make([]int, p.m)
		s.z = make([]float64, p.stride)
		s.colRow = make([]int, p.total)
		s.colOnes = make([]int, p.total)
		s.basisOf = make([]int, p.m)
		s.blocked = make([]bool, p.stride)
	}
	s.pivots = 0
	s.warm = false

	// Copy the compiled matrix in, normalizing to b ≥ 0.
	for i := 0; i < p.m; i++ {
		ti := s.t[i*p.stride : (i+1)*p.stride]
		copy(ti, p.sf[i*p.total:(i+1)*p.total])
		for j := p.total; j < len(ti); j++ {
			ti[j] = 0
		}
		b := s.b[i]
		if b < 0 {
			b = -b
			for j := 0; j < p.total; j++ {
				ti[j] = -ti[j]
			}
		}
		ti[len(ti)-1] = 0 // rhs position assigned below once nart is known
		s.newb[i] = b     // stash normalized rhs
	}

	// Unit-column scan: a column with a single +1 entry can seed the basis
	// of its row (slack columns of LE rows with b ≥ 0 have this shape).
	for j := 0; j < p.total; j++ {
		s.colRow[j] = -1
		s.colOnes[j] = 0
	}
	for i := 0; i < p.m; i++ {
		ti := s.t[i*p.stride:]
		for j := 0; j < p.total; j++ {
			if ti[j] != 0 {
				s.colOnes[j]++
				s.colRow[j] = i
			}
		}
	}
	for i := range s.basisOf {
		s.basisOf[i] = -1
	}
	for j := p.total - 1; j >= 0; j-- { // prefer later (slack) columns
		if s.colOnes[j] == 1 {
			i := s.colRow[j]
			if s.basisOf[i] == -1 && s.t[i*p.stride+j] == 1 {
				s.basisOf[i] = j
			}
		}
	}
	nart := 0
	for i := 0; i < p.m; i++ {
		if s.basisOf[i] == -1 {
			nart++
		}
	}
	s.nart = nart
	s.rhsCol = p.total + nart
	ncols := p.total + nart

	// Place artificials and the rhs column.
	art := p.total
	for i := 0; i < p.m; i++ {
		ti := s.t[i*p.stride:]
		ti[s.rhsCol] = s.newb[i]
		if s.basisOf[i] >= 0 {
			s.basis[i] = s.basisOf[i]
		} else {
			ti[art] = 1
			s.basis[i] = art
			art++
		}
	}

	// Phase 1: minimize the sum of artificials (skipped when none exist).
	if nart > 0 {
		for j := 0; j <= s.rhsCol; j++ {
			s.z[j] = 0
		}
		for i := 0; i < p.m; i++ {
			if s.basis[i] < p.total {
				continue
			}
			ti := s.t[i*p.stride:]
			for j := 0; j <= s.rhsCol; j++ {
				s.z[j] -= ti[j]
			}
		}
		for i := 0; i < p.m; i++ {
			s.z[s.basis[i]] = 0
		}
		if st := s.iterate(ncols, false); st != Optimal {
			return st
		}
		if -s.z[s.rhsCol] > 1e-7 {
			return Infeasible
		}
		// Drive remaining artificials out of the basis where possible; a
		// row with no pivot is redundant and its artificial stays basic at
		// zero, excluded from phase-2 pricing.
		for i := 0; i < p.m; i++ {
			if s.basis[i] < p.total {
				continue
			}
			ti := s.t[i*p.stride:]
			for j := 0; j < p.total; j++ {
				if math.Abs(ti[j]) > 1e-7 {
					s.pivot(i, j)
					break
				}
			}
		}
	}

	// Phase 2: rebuild reduced costs for the real objective.
	copy(s.z[:p.total], p.cost)
	for j := p.total; j <= s.rhsCol; j++ {
		s.z[j] = 0
	}
	for i := 0; i < p.m; i++ {
		j := s.basis[i]
		if j >= p.total {
			continue
		}
		cj := s.z[j]
		if cj == 0 {
			continue
		}
		ti := s.t[i*p.stride:]
		for k := 0; k <= s.rhsCol; k++ {
			s.z[k] -= cj * ti[k]
		}
	}
	useBlocked := nart > 0
	if useBlocked {
		for j := 0; j < p.total; j++ {
			s.blocked[j] = false
		}
		for j := p.total; j < ncols; j++ {
			s.blocked[j] = true
		}
	}
	if st := s.iterate(ncols, useBlocked); st != Optimal {
		return st
	}
	s.stats.ColdPivots += s.pivots
	s.pivots = 0 // fresh factorization: reset the drift guard
	return Optimal
}

// iterate runs primal simplex pivots until optimality, unboundedness, or
// the iteration cap, replicating the historical pricing exactly (Dantzig,
// then Bland after blandTrip pivots; ratio ties toward the smallest basis
// index).
func (s *refSolver) iterate(ncols int, useBlocked bool) Status {
	p := s.p
	for iter := 0; iter < iterCap; iter++ {
		bland := iter > blandTrip
		enter := -1
		best := -eps
		for j := 0; j < ncols; j++ {
			if useBlocked && s.blocked[j] {
				continue
			}
			if s.z[j] < best {
				if bland {
					enter = j
					break
				}
				best = s.z[j]
				enter = j
			}
		}
		if enter == -1 {
			return Optimal
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < p.m; i++ {
			ti := s.t[i*p.stride:]
			if ti[enter] > eps {
				ratio := ti[s.rhsCol] / ti[enter]
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave == -1 || s.basis[i] < s.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return Unbounded
		}
		s.pivot(leave, enter)
	}
	return IterLimit
}

// pivot performs a Gauss-Jordan pivot on tableau row r, column c, updating
// the reduced-cost row alongside. Only the logical width [0, rhsCol] is
// touched. The row update is the solver's single hottest loop (>80% of a
// resolve), hence the manual 4-way unrolling.
func (s *refSolver) pivot(r, c int) {
	p := s.p
	w := s.rhsCol + 1
	pr := s.t[r*p.stride : r*p.stride+w]
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1 // avoid roundoff drift on the pivot itself
	for i := 0; i < p.m; i++ {
		if i == r {
			continue
		}
		ti := s.t[i*p.stride : i*p.stride+w]
		f := ti[c]
		if f == 0 {
			continue
		}
		axpyNeg(ti, pr, f)
		ti[c] = 0
	}
	f := s.z[c]
	if f != 0 {
		axpyNeg(s.z[:w], pr, f)
		s.z[c] = 0
	}
	s.basis[r] = c
	s.pivots++
}
