package lp

import (
	"math"
	"sync"
)

// This file implements the compiled parametric solver behind Problem.Solve
// and the hot resolve paths of the RMPC and MIP layers (DESIGN.md §5.3).
//
// A Solver separates *compile* from *solve*: the standard-form conversion
// (variable maps, slack layout, the constraint matrix, and the objective)
// depends only on the problem's structure, while the right-hand sides and
// the variable bounds are per-solve parameters. Compiling once and
// resolving with fresh parameters is what makes the RMPC's per-step LP an
// O(rows) refresh instead of a full rebuild, and lets branch-and-bound
// nodes share one compiled form.
//
// Condensed tableau: a basic column of a simplex tableau is an exact unit
// vector (pivots write the 1 and the 0s explicitly), so only the nonbasic
// columns and the rhs are stored — m rows × (nonbasic + 1) instead of
// m × (all columns + artificials + 1). Every stored entry is computed by
// exactly the arithmetic a full-tableau pivot would apply to it, and every
// column scan runs in ascending column order through a sorted slot
// permutation, so the condensed solver reproduces the full tableau's
// pivots and answers bit for bit.
//
// Warm starts: for programs in which every row carries a slack column (no
// equality rows — the shape of every polytope, RMPC, and MIP program in
// this repository), the tableau's slack columns are B⁻¹ up to the compiled
// slack signs. A basic slack's column is a unit vector, so a new
// right-hand side costs one O(m·k) transform through the k nonbasic slack
// columns; if the transformed column stays nonnegative the previous basis
// is still optimal (zero pivots), otherwise the basis is primal-infeasible
// but dual-feasible and a dual-simplex loop repairs it. Any failure
// (iteration cap, basic artificials, equality rows) falls back to the cold
// two-phase path, so warm starts never change solvability.

// upperRow is a compiled "y_col ≤ hi − lo" row for a doubly bounded
// variable.
type upperRow struct {
	v   int // original variable index
	col int // standard-form column of the shifted variable
}

// boundClass encodes which bounds of a variable are finite; parametric
// bound changes must preserve it (the standard-form structure depends on
// it).
type boundClass uint8

const (
	classLower boundClass = 1 << iota // lower bound finite
	classUpper                        // upper bound finite
)

func classOf(lo, hi float64) boundClass {
	var c boundClass
	if !math.IsInf(lo, -1) {
		c |= classLower
	}
	if !math.IsInf(hi, 1) {
		c |= classUpper
	}
	return c
}

// program is the immutable compiled form of a Problem: everything about
// the standard-form conversion that does not depend on the right-hand
// sides or the bound values. Solvers forked from one compile share it.
type program struct {
	n  int // original variables
	m0 int // original constraint rows
	m  int // total rows = m0 + len(uppers)

	maps   []varMap
	class  []boundClass
	uppers []upperRow

	ncols int // structural (variable) columns
	total int // ncols + slack columns

	rows     []row     // compiled copy of the original rows (coeffs shared, immutable)
	sf       []float64 // m × total flat standard-form matrix, slack entries included
	slackSgn []float64 // per row: +1 (LE / upper), −1 (GE), 0 (EQ)
	allSlack bool      // every row has a slack column: warm starts possible

	// Column sparsity of sf, for the cold start's unit-column scan.
	colNZ  []int // per column: nonzero entries
	colRow []int // per column: row of its last nonzero entry

	// Bound-shift terms of the original rows: row i subtracts
	// shiftCoef[q]·shift[shiftVar[q]] for q in [shiftStart[i], shiftStart[i+1]),
	// in ascending variable order (only nonzero coefficients on shifted
	// variables).
	shiftStart []int
	shiftVar   []int
	shiftCoef  []float64

	cost  []float64 // standard-form objective (len total)
	c     []float64 // original objective
	lower []float64 // compiled bounds
	upper []float64

	scratch sync.Pool // *coldScratch: phase-1 workspace shared by the forks
}

// tableau is a condensed simplex tableau over m rows: only the k nonbasic
// columns are stored, each in a slot, plus the rhs. Basic columns are
// implicit unit vectors.
type tableau struct {
	k       int       // stored (nonbasic) columns; rows have stride k+1
	t       []float64 // m × (k+1) row-major; index k of each row is the rhs
	z       []float64 // reduced-cost row, same layout
	basis   []int     // per row: its basic column
	slotCol []int     // per slot: the column it stores
	order   []int     // slots sorted by ascending column
	pivots  int       // pivots since the last cold solve (drift guard)
}

// resize shapes tb to m rows and k slots, reusing its buffers when they
// are large enough.
func (tb *tableau) resize(m, k int) {
	tb.k = k
	tb.t = grow(tb.t, m*(k+1))
	tb.z = grow(tb.z, k+1)
	tb.basis = grow(tb.basis, m)
	tb.slotCol = grow(tb.slotCol, k)
	tb.order = grow(tb.order, k)
}

// grow returns s resized to length n, reallocating only when its capacity
// is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// coldScratch is the cold path's temporary state. Phase 1 may need a
// column slot for every artificial, so it runs in this wider tableau,
// borrowed from the program's pool; only the phase-2 width stays resident
// in each Solver.
type coldScratch struct {
	tab     tableau
	basisOf []int // per row: its unit seed column, or −1
}

// Solver is a compiled Problem plus a reusable solve workspace. It is the
// allocation-free resolve engine: after the first solve, subsequent solves
// with new parameters reuse every buffer and warm-start from the previous
// optimal basis.
//
// A Solver snapshots the Problem at NewSolver time; later mutations of the
// Problem are not seen. Solvers are not safe for concurrent use — use
// Fork to give each goroutine (or each deterministic call chain) its own
// workspace over the shared compiled form.
type Solver struct {
	p *program

	// Per-solve parameter bounds (active only while paramBounds is set).
	lo, hi      []float64
	paramBounds bool

	// Workspace (lazily allocated, then reused).
	shift []float64 // current shift per variable, derived from lo/hi
	b     []float64 // standard-form rhs (shift-adjusted, unnormalized)

	tab  tableau // phase-2 tableau; the warm-start state when warm is set
	warm bool

	// Warm transform terms: the nonbasic slack slots with b ≠ 0, in
	// ascending row order, and their coefficient slackSgn·b.
	wSlot []int
	wRow  []int
	wCoef []float64

	y   []float64 // standard-form solution
	sol Solution  // reused result; sol.X aliases the x buffer below
	x   []float64

	stats SolveStats
}

// SolveStats counts which path solves on a Solver took — the direct
// evidence that a hot loop is actually warm-starting — and how many
// pivots each path spent.
type SolveStats struct {
	Cold          int // cold two-phase solves (first call, fallbacks, refactorizations)
	Warm          int // warm resolves from the previous basis (incl. zero-pivot hits)
	WarmFallbacks int // warm attempts that could not certify an answer and ran cold
	ColdPivots    int // pivots spent in successful cold solves
	WarmPivots    int // dual-simplex pivots spent in warm attempts, fallbacks included
}

// Stats returns the solve-path counters accumulated since construction or
// Fork.
func (s *Solver) Stats() SolveStats { return s.stats }

// refactorEvery bounds the pivots applied to one tableau before a cold
// refactorization, so floating-point drift from long warm chains stays
// comparable to a handful of cold solves.
const refactorEvery = 1024

// NewSolver compiles p into a parametric solver. The problem's rows,
// objective, and bounds are snapshotted; solve-time parameters override
// the right-hand sides and bound values but not the structure.
func NewSolver(p *Problem) *Solver {
	pr := &program{
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

	// Rows are snapshotted; coefficient slices are copied so later
	// Problem mutations cannot reach the compiled form.
	pr.rows = make([]row, pr.m0)
	pr.shiftStart = make([]int, pr.m0+1)
	for i, r := range p.rows {
		cc := append([]float64(nil), r.coeffs...)
		pr.rows[i] = row{coeffs: cc, sense: r.sense, rhs: r.rhs}
		for j, coef := range cc {
			if coef != 0 && pr.maps[j].kind != 2 {
				pr.shiftVar = append(pr.shiftVar, j)
				pr.shiftCoef = append(pr.shiftCoef, coef)
			}
		}
		pr.shiftStart[i+1] = len(pr.shiftVar)
	}

	// Flat standard-form matrix with the slack entries in place. When
	// every row has a slack, row i's slack is column ncols+i.
	pr.sf = make([]float64, pr.m*pr.total)
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
			pr.slackSgn[i] = 1
			slack++
		case GE:
			ro[slack] = -1
			pr.slackSgn[i] = -1
			slack++
		default:
			pr.allSlack = false
		}
	}
	for k, ur := range pr.uppers {
		i := pr.m0 + k
		ro := pr.sf[i*pr.total : (i+1)*pr.total]
		ro[ur.col] = 1
		ro[slack] = 1
		pr.slackSgn[i] = 1
		slack++
	}

	pr.colNZ = make([]int, pr.total)
	pr.colRow = make([]int, pr.total)
	for i := 0; i < pr.m; i++ {
		for j, v := range pr.sf[i*pr.total : (i+1)*pr.total] {
			if v != 0 {
				pr.colNZ[j]++
				pr.colRow[j] = i
			}
		}
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

	pr.scratch.New = func() any {
		return &coldScratch{basisOf: make([]int, pr.m)}
	}
	return &Solver{p: pr}
}

// Fork returns a new Solver over the same compiled program with its own
// (lazily allocated) workspace and no warm-start state. Forks are how
// concurrent or determinism-sensitive callers share one compile: each
// fork's warm chain depends only on its own solve sequence.
func (s *Solver) Fork() *Solver { return &Solver{p: s.p} }

// ResetWarm discards the warm-start state so the next solve takes the cold
// two-phase path, exactly as on a freshly forked solver, while keeping
// every allocated buffer. Pooled workspaces call it between logical
// sessions: a reused solver's solve chain is then bitwise identical to a
// fresh fork's, because the cold path rebuilds the tableau from the
// compiled form. The solve-path stats keep accumulating across resets.
func (s *Solver) ResetWarm() {
	s.warm = false
	s.tab.pivots = 0
}

// NumRows returns the number of original constraint rows (the length of
// the rhs parameter accepted by SolveRHS).
func (s *Solver) NumRows() int { return s.p.m0 }

// NumVars returns the number of original decision variables.
func (s *Solver) NumVars() int { return s.p.n }

// Solve resolves the compiled problem with its compiled right-hand sides
// and bounds. The returned Solution (and its X slice) is owned by the
// Solver and only valid until the next solve on it.
func (s *Solver) Solve() *Solution { return s.solve(nil) }

// SolveRHS resolves with new right-hand sides for the original constraint
// rows (len(rhs) must equal NumRows) and the compiled bounds. rhs is read,
// not retained. The returned Solution is owned by the Solver and only
// valid until the next solve on it.
func (s *Solver) SolveRHS(rhs []float64) *Solution {
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
func (s *Solver) SolveParams(rhs, lo, hi []float64) (sol *Solution, ok bool) {
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
func (s *Solver) bounds() (lo, hi []float64) {
	if s.paramBounds {
		return s.lo, s.hi
	}
	return s.p.lower, s.p.upper
}

// prepare derives the per-solve shifts and the standard-form rhs b from
// the active parameters. The shift-adjustment accumulation order matches
// the historical Problem.Solve construction exactly.
func (s *Solver) prepare(rhs []float64) {
	p := s.p
	if s.shift == nil {
		s.shift = make([]float64, p.n)
		s.b = make([]float64, p.m)
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
		for q := p.shiftStart[i]; q < p.shiftStart[i+1]; q++ {
			b -= p.shiftCoef[q] * s.shift[p.shiftVar[q]]
		}
		s.b[i] = b
	}
	for k, ur := range p.uppers {
		s.b[p.m0+k] = hi[ur.v] - lo[ur.v]
	}
}

// solve runs the warm path when possible and falls back to the cold
// two-phase simplex otherwise.
func (s *Solver) solve(rhs []float64) *Solution {
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

	if s.warm && p.allSlack && s.tab.pivots < refactorEvery {
		p0 := s.tab.pivots
		st, ok := s.resolveWarm()
		s.stats.WarmPivots += s.tab.pivots - p0
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
func (s *Solver) extract() *Solution {
	p := s.p
	if p.m > 0 {
		for i := range s.y {
			s.y[i] = 0
		}
		tb := &s.tab
		for i, j := range tb.basis {
			if j < p.total {
				s.y[j] = tb.t[i*(tb.k+1)+tb.k]
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
func (s *Solver) resolveWarm() (Status, bool) {
	p := s.p
	tb := &s.tab
	w := tb.k + 1
	// New rhs column in the current basis: the slack columns of the
	// tableau are B⁻¹·D·Σ for the row-sign normalization D and slack signs
	// Σ, so B⁻¹·D·b = T_slack·Σ·b — the normalization cancels. Row k's
	// slack is column ncols+k. A basic slack's column is the unit vector
	// of its row, so each row sums the nonbasic slack terms plus its own
	// basic slack's 1·Σ_k·b_k, all in ascending k.
	s.wSlot = grow(s.wSlot, tb.k)
	s.wRow = grow(s.wRow, tb.k)
	s.wCoef = grow(s.wCoef, tb.k)
	nw := 0
	for _, sl := range tb.order {
		j := tb.slotCol[sl]
		if j < p.ncols {
			continue
		}
		if j >= p.total {
			break
		}
		k := j - p.ncols
		if bk := s.b[k]; bk != 0 {
			s.wSlot[nw], s.wRow[nw], s.wCoef[nw] = sl, k, p.slackSgn[k]*bk
			nw++
		}
	}
	wSlot, wRow, wCoef := s.wSlot[:nw], s.wRow[:nw], s.wCoef[:nw]
	infeasRows := 0
	for i := 0; i < p.m; i++ {
		ti := tb.t[i*w : i*w+w]
		kb, cb := -1, 0.0
		if j := tb.basis[i]; j >= p.ncols && j < p.total {
			if bk := s.b[j-p.ncols]; bk != 0 {
				kb, cb = j-p.ncols, p.slackSgn[j-p.ncols]*bk
			}
		}
		acc := 0.0
		for q, sl := range wSlot {
			if kb >= 0 && wRow[q] > kb {
				acc += cb
				kb = -1
			}
			acc += ti[sl] * wCoef[q]
		}
		if kb >= 0 {
			acc += cb
		}
		ti[tb.k] = acc
		if acc < -eps {
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
		// is cheaper (measured on the RMPC program; trajectory-local
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
	for i, j := range tb.basis {
		if j >= p.total && tb.t[i*w+tb.k] > 1e-7 {
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
func (s *Solver) dualSimplex() (Status, bool) {
	p := s.p
	tb := &s.tab
	w := tb.k + 1
	for iter := 0; iter < iterCap; iter++ {
		// Leaving row: most negative rhs.
		leave := -1
		worst := -eps
		for i := 0; i < p.m; i++ {
			if v := tb.t[i*w+tb.k]; v < worst {
				worst = v
				leave = i
			}
		}
		if leave == -1 {
			return Optimal, true
		}
		// Entering column: dual ratio test over negative entries of the
		// leaving row in ascending column order; ties toward the smallest
		// column index. The scan stops at p.total — artificials must not
		// re-enter.
		lr := tb.t[leave*w : leave*w+w]
		enter, enterCol := -1, -1
		best := math.Inf(1)
		for _, sl := range tb.order {
			j := tb.slotCol[sl]
			if j >= p.total {
				break
			}
			a := lr[sl]
			if a >= -eps {
				continue
			}
			r := tb.z[sl] / -a
			if r < best-eps || (r < best+eps && (enter == -1 || j < enterCol)) {
				best = r
				enter, enterCol = sl, j
			}
		}
		if enter == -1 {
			// Dual unbounded ⇒ primal infeasible; let the cold path
			// confirm rather than trusting a drifted tableau.
			return Infeasible, false
		}
		tb.pivot(leave, enter)
	}
	return IterLimit, false
}

// solveCold runs the two-phase simplex from scratch on the prepared b,
// replicating the historical from-scratch solve arithmetic. On Optimal it
// leaves the phase-2 tableau and reduced costs in place as the warm-start
// state.
func (s *Solver) solveCold() Status {
	p := s.p
	sc := p.scratch.Get().(*coldScratch)
	defer p.scratch.Put(sc)
	s.warm = false

	// Unit-column seeds: a column with a single +1 entry (after the row's
	// sign normalization to b ≥ 0) can seed the basis of its row — slack
	// columns of LE rows with b ≥ 0 have this shape. Later (slack) columns
	// are preferred. Rows without a seed get an artificial.
	basisOf := sc.basisOf
	for i := range basisOf {
		basisOf[i] = -1
	}
	for j := p.total - 1; j >= 0; j-- {
		if p.colNZ[j] != 1 {
			continue
		}
		i := p.colRow[j]
		v := p.sf[i*p.total+j]
		if s.b[i] < 0 {
			v = -v
		}
		if basisOf[i] == -1 && v == 1 {
			basisOf[i] = j
		}
	}
	nart := 0
	for _, j := range basisOf {
		if j < 0 {
			nart++
		}
	}

	// Every real column starts nonbasic except the seeds; artificials
	// start basic. Phase 1 runs in the scratch tableau, a cold solve
	// without artificials directly in the resident one.
	tb := &s.tab
	if nart > 0 {
		tb = &sc.tab
	}
	k := p.total + nart - p.m
	tb.resize(p.m, k)
	tb.pivots = 0
	w := k + 1
	sl := 0
	for j := 0; j < p.total; j++ {
		if p.colNZ[j] == 1 && basisOf[p.colRow[j]] == j {
			continue // seed
		}
		tb.slotCol[sl], tb.order[sl] = j, sl
		sl++
	}
	art := p.total
	for i := 0; i < p.m; i++ {
		src := p.sf[i*p.total : (i+1)*p.total]
		ti := tb.t[i*w : i*w+w]
		b := s.b[i]
		if b < 0 {
			b = -b
			for q, j := range tb.slotCol {
				ti[q] = -src[j]
			}
		} else {
			for q, j := range tb.slotCol {
				ti[q] = src[j]
			}
		}
		ti[k] = b
		if basisOf[i] >= 0 {
			tb.basis[i] = basisOf[i]
		} else {
			tb.basis[i] = art
			art++
		}
	}

	// Phase 1: minimize the sum of artificials (skipped when none exist).
	if nart > 0 {
		z := tb.z
		for j := range z {
			z[j] = 0
		}
		for i := 0; i < p.m; i++ {
			if tb.basis[i] < p.total {
				continue
			}
			ti := tb.t[i*w : i*w+w]
			for j := range z {
				z[j] -= ti[j]
			}
		}
		if st := tb.iterate(p.total + nart); st != Optimal {
			return st
		}
		if -z[k] > 1e-7 {
			return Infeasible
		}
		// Drive remaining artificials out of the basis where possible; a
		// row with no pivot is redundant and its artificial stays basic at
		// zero, excluded from phase-2 pricing.
		for i := 0; i < p.m; i++ {
			if tb.basis[i] < p.total {
				continue
			}
			ti := tb.t[i*w : i*w+w]
			for _, q := range tb.order {
				if tb.slotCol[q] >= p.total {
					break
				}
				if math.Abs(ti[q]) > 1e-7 {
					tb.pivot(i, q)
					break
				}
			}
		}
		s.keepPhase2(tb)
		tb = &s.tab
		k = tb.k
		w = k + 1
	}

	// Phase 2: rebuild reduced costs for the real objective.
	z := tb.z
	for q, j := range tb.slotCol {
		z[q] = p.cost[j]
	}
	z[k] = 0
	for i := 0; i < p.m; i++ {
		j := tb.basis[i]
		if j >= p.total {
			continue
		}
		if cj := p.cost[j]; cj != 0 {
			axpyNeg(z, tb.t[i*w:i*w+w], cj)
		}
	}
	if st := tb.iterate(p.total); st != Optimal {
		return st
	}
	s.stats.ColdPivots += tb.pivots
	tb.pivots = 0 // fresh factorization: reset the drift guard
	return Optimal
}

// keepPhase2 copies the phase-1 tableau ph1 into the resident tableau,
// dropping the nonbasic artificial columns — dead from here on, since
// phase 2 and the warm path never let an artificial enter. The kept slots
// are laid out in ascending column order.
func (s *Solver) keepPhase2(ph1 *tableau) {
	p := s.p
	k := 0
	for _, q := range ph1.order {
		if ph1.slotCol[q] >= p.total {
			break
		}
		k++
	}
	tb := &s.tab
	tb.resize(p.m, k)
	for q := 0; q < k; q++ {
		tb.slotCol[q], tb.order[q] = ph1.slotCol[ph1.order[q]], q
	}
	w1, w := ph1.k+1, k+1
	for i := 0; i < p.m; i++ {
		src := ph1.t[i*w1 : i*w1+w1]
		dst := tb.t[i*w : i*w+w]
		for q, from := range ph1.order[:k] {
			dst[q] = src[from]
		}
		dst[k] = src[ph1.k]
	}
	copy(tb.basis, ph1.basis)
	tb.pivots = ph1.pivots
}

// iterate runs primal simplex pivots until optimality, unboundedness, or
// the iteration cap, replicating the historical pricing exactly (Dantzig
// over columns below limit in ascending order, then Bland after blandTrip
// pivots; ratio ties toward the smallest basis index).
func (tb *tableau) iterate(limit int) Status {
	w := tb.k + 1
	for iter := 0; iter < iterCap; iter++ {
		bland := iter > blandTrip
		enter := -1
		best := -eps
		for _, q := range tb.order {
			if tb.slotCol[q] >= limit {
				break
			}
			if zq := tb.z[q]; zq < best {
				enter = q
				if bland {
					break
				}
				best = zq
			}
		}
		if enter == -1 {
			return Optimal
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := range tb.basis {
			ti := tb.t[i*w : i*w+w]
			if a := ti[enter]; a > eps {
				ratio := ti[tb.k] / a
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave == -1 || tb.basis[i] < tb.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return Unbounded
		}
		tb.pivot(leave, enter)
	}
	return IterLimit
}

// pivot performs a Gauss-Jordan pivot on row r and the column in slot q,
// updating the reduced-cost row alongside. The leaving column takes over
// slot q. Its entries are what the full-tableau update would compute from
// its unit column: inv in the pivot row and 0 − f·inv in every row with
// f ≠ 0 (rows with f = 0 keep a zero). The row update is the solver's
// single hottest loop, hence the manual 4-way unrolling in axpyNeg.
func (tb *tableau) pivot(r, q int) {
	w := tb.k + 1
	pr := tb.t[r*w : r*w+w]
	inv := 1 / pr[q]
	for j := range pr {
		pr[j] *= inv
	}
	pr[q] = inv
	for i := range tb.basis {
		if i == r {
			continue
		}
		ti := tb.t[i*w : i*w+w]
		f := ti[q]
		if f == 0 {
			continue
		}
		ti[q] = 0
		axpyNeg(ti, pr, f)
	}
	if f := tb.z[q]; f != 0 {
		tb.z[q] = 0
		axpyNeg(tb.z[:w], pr, f)
	}
	leaving := tb.basis[r]
	tb.basis[r] = tb.slotCol[q]
	tb.slotCol[q] = leaving
	tb.reorder(q)
	tb.pivots++
}

// reorder restores the ascending-column order of tb.order after slot q's
// column changed.
func (tb *tableau) reorder(q int) {
	o := tb.order
	i := 0
	for o[i] != q {
		i++
	}
	c := tb.slotCol[q]
	for i > 0 && tb.slotCol[o[i-1]] > c {
		o[i] = o[i-1]
		i--
	}
	for i+1 < len(o) && tb.slotCol[o[i+1]] < c {
		o[i] = o[i+1]
		i++
	}
	o[i] = q
}

// axpyNeg computes dst[j] -= f·src[j], 4-way unrolled. len(dst) must equal
// len(src).
func axpyNeg(dst, src []float64, f float64) {
	n := len(dst)
	src = src[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		d := dst[j : j+4 : j+4]
		s := src[j : j+4 : j+4]
		d[0] -= f * s[0]
		d[1] -= f * s[1]
		d[2] -= f * s[2]
		d[3] -= f * s[3]
	}
	for ; j < n; j++ {
		dst[j] -= f * src[j]
	}
}
