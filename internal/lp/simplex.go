package lp

import (
	"context"
	"math"
	"sync"

	"rentplan/internal/num"
)

// variable status within the simplex.
type varStatus int8

const (
	statusBasic varStatus = iota
	statusAtLower
	statusAtUpper
	statusFree // nonbasic free variable pinned at 0
)

// simplex is a two-phase bounded-variable primal simplex working on the
// equality form  [A | I_slack | I_art] x = b.  Column indices:
//
//	[0, n)        structural variables
//	[n, n+m)      slack variables (fixed to 0 for EQ rows)
//	[n+m, n+2m)   artificial variables (phase 1 only)
type simplex struct {
	p    *Problem
	opts Options

	m, n int // rows, structural variables
	nTot int // n + m (structural + slack)
	nAll int // n + 2m (adds artificials)

	// csc is the structural constraint matrix compiled on solve entry; all
	// matrix access in the hot loops goes through it, never through p.SA.
	csc cscMat

	lo, hi []float64 // bounds per column, length nAll
	cost   []float64 // phase-2 cost per column, length nAll
	artSgn []float64 // ±1 column sign per artificial row

	basis []int       // column index basic in each row
	inRow []int       // column → basic row, or -1
	stat  []varStatus // column → status
	xval  []float64   // column → current value

	// The basis inverse is never formed: B⁻¹ = (eta file)·(factors of the
	// last factorisation). lu holds the current factors, luSpare the buffers
	// the next factorisation is built in (swapped in on success), and peel
	// the peel's working buffers and the FTRAN/BTRAN scratch (factor.go,
	// eta.go). Every path — primal, repair, eviction and dual — updates the
	// basis by pushing etas and refactorises on the eta file's caps.
	lu, luSpare basisFactors
	peel        peelScratch
	eta         etaFile

	// scratch buffers reused across iterations.
	y, w, acc []float64
	wnz       []int32   // positions of the nonzeros of w (ftranSpike)
	rhs       []float64 // residual scratch for setup/computeBasicValues

	iters      int
	degenerate int  // consecutive (near-)degenerate pivots
	bland      bool // anti-cycling mode

	// Candidate-list pricing state (unused under Options.FullPricing).
	cand      []int32   // nonbasic columns harvested by the last full sweep
	candScore []float64 // harvest scores, parallel to cand during rebuild
	candAge   int       // pivots served since the last rebuild
	// lastLeave is the basis row exchanged by the most recent pivot, or -1
	// after a bound flip.
	lastLeave int
	// rejected lists the columns rejectEntering excluded from pricing at
	// the current basis; every accepted pivot clears it.
	rejected []int32

	sweeps   int // full pricing sweeps (Solution.PricingSweeps)
	candHits int // pivots served from the candidate list

	// Dual-simplex state (dual.go).
	dred  []float64 // nonbasic reduced costs maintained by the dual path
	alpha []float64 // dual pricing row α_j = (B⁻¹A_j)_r per column
	rowr  []float64 // BTRAN scratch: row r of the current B⁻¹ (btranRow)
	rownz []int32   // positions of the nonzeros of rowr
	w2    []float64 // secondary FTRAN scratch (bound-flip spikes)
	elig  []int32   // dual ratio-test candidate list
	flips []int32   // pending bound flips of the current dual pivot

	dualIters        int // dual-simplex pivots (Solution.DualIters)
	etaCount         int // dual-path eta updates recorded (Solution.EtaCount)
	refactorizations int // basis refactorisations (Solution.Refactorizations)

	// ctx, when non-nil, is polled every ctxCheckInterval pivots; a canceled
	// or expired context stops the phase loops with StatusCanceled. Nil on
	// the plain Solve/SolveWithOptions/SolveFrom paths, so they pay nothing.
	ctx context.Context
}

// canceled reports whether the solve's context has been canceled or its
// deadline has expired.
func (s *simplex) canceled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// simplexPool recycles solver instances across solves, so rolling-horizon
// replans and branch-and-bound node LPs stop re-allocating the basis
// factors, the eta file and O(m+n) of scratch every call. A pooled instance
// retains only buffers — reset re-derives every semantic field, and release
// drops the Problem/context/CSC references so nothing user-visible is
// pinned.
var simplexPool = sync.Pool{New: func() any { return new(simplex) }}

func newSimplex(p *Problem, opts Options) *simplex {
	s := simplexPool.Get().(*simplex)
	s.reset(p, opts)
	return s
}

// release returns the solver to the pool. The Solution assembled by result()
// shares no memory with the solver, so callers release as soon as they hold
// the Solution.
func (s *simplex) release() {
	s.p = nil
	s.ctx = nil
	simplexPool.Put(s)
}

// reset re-initialises a (possibly recycled) solver for one solve of p.
// Every field the solve reads is either re-assigned here, assigned by the
// phase setup paths before first use, or explicitly re-zeroed — recycled
// buffer contents must never leak between solves.
func (s *simplex) reset(p *Problem, opts Options) {
	m, n := p.NumRows(), p.NumVars()
	s.p, s.opts = p, opts
	s.m, s.n, s.nTot, s.nAll = m, n, n+m, n+2*m
	s.csc.compile(p)
	s.lo = growFloat(s.lo, s.nAll)
	s.hi = growFloat(s.hi, s.nAll)
	s.cost = growFloat(s.cost, s.nAll)
	s.artSgn = growFloat(s.artSgn, m)
	for j := 0; j < n; j++ {
		s.lo[j], s.hi[j] = p.boundsAt(j)
		s.cost[j] = p.C[j]
	}
	// Slack and artificial columns always cost zero in phase 2; a recycled
	// cost buffer holds stale values, so zero the tail explicitly.
	for j := n; j < s.nAll; j++ {
		s.cost[j] = 0
	}
	for i := 0; i < m; i++ {
		j := n + i
		switch p.Rel[i] {
		case LE:
			s.lo[j], s.hi[j] = 0, math.Inf(1)
		case GE:
			s.lo[j], s.hi[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.hi[j] = 0, 0
		}
	}
	// Artificial bounds are assigned in phase 1 setup.
	s.basis = growInt(s.basis, m)
	s.inRow = growInt(s.inRow, s.nAll)
	s.stat = growStatus(s.stat, s.nAll)
	s.xval = growFloat(s.xval, s.nAll)
	s.y = growFloat(s.y, m)
	s.w = growFloat(s.w, m)
	s.acc = growFloat(s.acc, n)
	s.rhs = growFloat(s.rhs, m)
	s.iters = 0
	s.degenerate = 0
	s.bland = false
	s.cand = s.cand[:0]
	s.candAge = 0
	s.lastLeave = -1
	s.sweeps = 0
	s.candHits = 0
	s.eta.reset()
	s.dred = growFloat(s.dred, s.nTot)
	s.alpha = growFloat(s.alpha, s.nTot)
	s.rowr = growFloat(s.rowr, m)
	s.w2 = growFloat(s.w2, m)
	s.peel.work = growFloat(s.peel.work, m)
	s.elig = s.elig[:0]
	s.flips = s.flips[:0]
	s.dualIters = 0
	s.etaCount = 0
	s.refactorizations = 0
	s.ctx = nil
}

// colDot returns row · A_j over column j's nonzeros.
func (s *simplex) colDot(row []float64, j int) float64 {
	switch {
	case j < s.n:
		c := &s.csc
		acc := 0.0
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			acc += row[c.rowIdx[t]] * c.val[t]
		}
		return acc
	case j < s.nTot:
		return row[j-s.n]
	default:
		return row[j-s.nTot] * s.artSgn[j-s.nTot]
	}
}

// nonbasicRest returns the value a nonbasic column rests at.
func (s *simplex) nonbasicRest(j int) (float64, varStatus) {
	lo, hi := s.lo[j], s.hi[j]
	switch {
	case !math.IsInf(lo, -1):
		return lo, statusAtLower
	case !math.IsInf(hi, 1):
		return hi, statusAtUpper
	default:
		return 0, statusFree
	}
}

func (s *simplex) solve() (*Solution, error) {
	feasible := s.setupPhase1()
	if !feasible {
		st := s.runPhase(true)
		if st == StatusIterLimit || st == StatusCanceled {
			// The limit/cancellation fired before feasibility: the partially-
			// pivoted iterate is not a usable point, so X/Obj stay empty.
			return s.result(st, false), nil
		}
		if s.artificialResidual() {
			sol := s.result(StatusInfeasible, false)
			sol.FarkasRay = s.dualVector(true)
			return sol, nil
		}
		s.evictArtificials()
	}
	return s.solvePhase2()
}

// artificialResidual reports whether a basic artificial still carries more
// than rounding noise at the end of phase 1. Each artificial is judged
// against its own row k: the noise it can legitimately hold grows with the
// magnitudes that cancel in b_k = Σ_j a_kj x_j + s_k, so the bound is
// FeasTol·(1 + |b_k| + |s_k| + Σ_j |a_kj x_j|). One model-wide scale would
// let a large row or bound hide a real violation on a small row.
func (s *simplex) artificialResidual() bool {
	for r := 0; r < s.m; r++ {
		aj := s.basis[r]
		if aj < s.nTot {
			continue
		}
		k := aj - s.nTot
		scale := 1 + math.Abs(s.p.B[k]) + math.Abs(s.xval[s.n+k])
		row := &s.p.SA[k]
		for t, j := range row.Ix {
			scale += math.Abs(row.V[t] * s.xval[j])
		}
		if s.xval[aj] > num.FeasTol*scale {
			return true
		}
	}
	return false
}

// solvePhase2 locks the artificial columns at zero, restores the true
// objective, and optimises from the current primal-feasible basis. It is the
// shared tail of the cold path (after phase 1) and the warm path (after
// installBasis / runRepair); an optimal solution carries a Basis snapshot so
// the caller can warm-start neighbouring problems.
func (s *simplex) solvePhase2() (*Solution, error) {
	for i := 0; i < s.m; i++ {
		j := s.nTot + i
		s.lo[j], s.hi[j] = 0, 0
		s.cost[j] = 0
		if s.stat[j] != statusBasic {
			s.xval[j] = 0
			s.stat[j] = statusAtLower
		}
	}
	// Honor an already-expired context before the first pivot: the phase
	// loops only poll every ctxCheckInterval pivots, so without this check
	// an entry with iters%ctxCheckInterval != 0 — or the clean-install warm
	// path — could run up to ctxCheckInterval−1 pivots past cancellation.
	// The iterate here is primal feasible in every entry case (post
	// phase 1, post repair, or a clean warm install), so X/Obj may be
	// reported exactly as for a cancellation that fires mid-phase-2.
	if s.canceled() {
		return s.result(StatusCanceled, true), nil
	}
	st := s.runPhase(false)
	if st == StatusOptimal && s.eta.count() > 0 {
		s.refactor()
	}
	sol := s.result(st, true)
	if st == StatusOptimal {
		sol.Duals = s.dualVector(false)
		sol.Basis = s.snapshotBasis()
	}
	return sol, nil
}

// dualVector returns y = c_B B⁻¹ for the phase's cost vector: at a phase-2
// optimum these are the row shadow prices; at a positive phase-1 optimum
// they form a Farkas-style infeasibility certificate. The BTRAN runs on the
// pooled s.y scratch and only the exported copy is freshly allocated.
func (s *simplex) dualVector(phase1 bool) []float64 {
	s.computeDuals(phase1)
	out := make([]float64, s.m)
	copy(out, s.y)
	return out
}

// setupPhase1 places nonbasic columns at rest, installs the artificial
// basis, and reports whether the slack/rest point is already feasible
// (in which case phase 1 can be skipped entirely).
func (s *simplex) setupPhase1() bool {
	// Rest all structural and slack columns.
	for j := 0; j < s.nTot; j++ {
		v, st := s.nonbasicRest(j)
		s.xval[j], s.stat[j] = v, st
		s.inRow[j] = -1
	}
	// Residual r = b − N·x_rest.
	r := s.rhs
	copy(r, s.p.B)
	for j := 0; j < s.n; j++ {
		if v := s.xval[j]; v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: zero rest values contribute nothing to the residual
			c := &s.csc
			for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
				r[c.rowIdx[t]] -= c.val[t] * v
			}
		}
	}
	for i := 0; i < s.m; i++ {
		if v := s.xval[s.n+i]; v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: zero slack rest values contribute nothing
			r[i] -= v
		}
	}
	// Try the cheap start: absorb the residual into the slack columns
	// where their bounds allow it, and count what is left over.
	allFeasible := true
	for i := 0; i < s.m; i++ {
		sj := s.n + i
		want := s.xval[sj] + r[i]
		if want >= s.lo[sj]-s.opts.Tol && want <= s.hi[sj]+s.opts.Tol {
			continue
		}
		allFeasible = false
		break
	}
	if allFeasible {
		// Slack basis with slack values set to absorb the residual.
		for i := 0; i < s.m; i++ {
			sj := s.n + i
			s.xval[sj] += r[i]
			s.basis[i] = sj
			s.stat[sj] = statusBasic
			s.inRow[sj] = i
			s.artSgn[i] = 1
			aj := s.nTot + i
			s.lo[aj], s.hi[aj] = 0, 0
			s.xval[aj] = 0
			s.stat[aj] = statusAtLower
			s.inRow[aj] = -1
		}
		s.factorize() // a unit basis always factorises
		return true
	}
	// General start: artificial basis carrying the residual.
	for i := 0; i < s.m; i++ {
		aj := s.nTot + i
		s.artSgn[i] = 1
		if r[i] < 0 {
			s.artSgn[i] = -1
		}
		s.lo[aj], s.hi[aj] = 0, math.Inf(1)
		s.xval[aj] = math.Abs(r[i])
		s.stat[aj] = statusBasic
		s.basis[i] = aj
		s.inRow[aj] = i
		s.inRow[s.n+i] = -1
	}
	s.factorize() // a signed unit basis always factorises
	return false
}

// phaseCost returns the active objective coefficient of column j.
func (s *simplex) phaseCost(j int, phase1 bool) float64 {
	if phase1 {
		if j >= s.nTot {
			return 1
		}
		return 0
	}
	return s.cost[j]
}

// computeDuals computes y = c_B B⁻¹ for the current basis by one BTRAN.
func (s *simplex) computeDuals(phase1 bool) {
	for i := 0; i < s.m; i++ {
		s.y[i] = s.phaseCost(s.basis[i], phase1)
	}
	s.btran(s.y)
}

// accumAcc recomputes acc = yᵀA over the structural columns by sweeping the
// CSC columns. Relative to the historical dense row sweep this accumulates
// the identical nonzero products in the identical (row-index) order per
// column, omitting only exact-zero terms, so the result matches the dense
// path bit-for-bit up to the sign of zero entries — which no tolerance
// comparison downstream can observe.
func (s *simplex) accumAcc() {
	c := &s.csc
	for j := 0; j < s.n; j++ {
		acc := 0.0
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			if yi := s.y[c.rowIdx[t]]; yi != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero dual multiplies every entry of the row to zero
				acc += yi * c.val[t]
			}
		}
		s.acc[j] = acc
	}
}

// runPhase iterates pivots until optimality, unboundedness or limits.
func (s *simplex) runPhase(phase1 bool) Status {
	s.rejected = s.rejected[:0]
	if s.opts.FullPricing {
		return s.runPhaseFull(phase1)
	}
	return s.runPhaseSparse(phase1)
}

// runPhaseFull is the classic loop preserved behind Options.FullPricing:
// exact duals and a full Dantzig pricing sweep on every pivot.
func (s *simplex) runPhaseFull(phase1 bool) Status {
	tol := s.opts.Tol
	for {
		if s.iters >= s.opts.MaxIter {
			return StatusIterLimit
		}
		if s.iters%ctxCheckInterval == 0 && s.canceled() {
			return StatusCanceled
		}
		s.computeDuals(phase1)
		s.accumAcc()
		s.sweeps++
		enter, dir := s.priceEntering(phase1, tol)
		if enter < 0 {
			return StatusOptimal // no improving column
		}
		s.ftranSpike(enter)
		if !s.spikeConfirms(enter, dir, phase1, tol) {
			s.rejectEntering(enter, phase1)
			continue
		}
		if s.pivot(enter, dir, false, tol) == statusPivotUnbounded {
			return StatusUnbounded
		}
		s.iters++
		s.rejected = s.rejected[:0]
	}
}

// runPhaseSparse is the default loop: candidate-list partial pricing over
// incrementally maintained duals. A full sweep (always over freshly
// recomputed duals) harvests the candCap() best-priced nonbasic columns;
// subsequent pivots drain that list, re-pricing only its members, until it
// is empty or candTTL() pivots old, whereupon the next sweep rebuilds it.
// Optimality is certified only by a sweep over exact duals, and
// unboundedness only by a spike that confirms the improvement, which does
// not depend on the duals at all.
func (s *simplex) runPhaseSparse(phase1 bool) Status {
	tol := s.opts.Tol
	s.cand = s.cand[:0]
	s.candAge = 0
	s.computeDuals(phase1)
	for {
		if s.iters >= s.opts.MaxIter {
			return StatusIterLimit
		}
		if s.iters%ctxCheckInterval == 0 && s.canceled() {
			return StatusCanceled
		}
		var enter int
		var dir float64
		fromList := false
		if s.bland {
			// Anti-cycling mode: exact duals and the same full
			// first-eligible sweep as the full-pricing path, so Bland's rule
			// keeps its termination guarantee.
			s.computeDuals(phase1)
			s.accumAcc()
			s.sweeps++
			enter, dir = s.priceEntering(phase1, tol)
		} else {
			enter = -1
			if len(s.cand) > 0 && s.candAge < s.candTTL() {
				enter, dir = s.pickCandidate(phase1, tol)
				fromList = enter >= 0
			}
			if enter < 0 {
				enter, dir = s.rebuildCandidates(phase1, tol)
			}
		}
		if enter < 0 {
			// The concluding sweep found no improving column: optimal.
			return StatusOptimal
		}
		s.ftranSpike(enter)
		if !s.spikeConfirms(enter, dir, phase1, tol) {
			s.rejectEntering(enter, phase1)
			continue
		}
		d := s.reducedCost(enter, phase1)
		if s.pivot(enter, dir, false, tol) == statusPivotUnbounded {
			return StatusUnbounded
		}
		s.iters++
		s.rejected = s.rejected[:0]
		if fromList {
			s.candHits++
		}
		s.candAge++
		if r := s.lastLeave; r >= 0 {
			// Basis exchange (a bound flip leaves the duals unchanged):
			// y' = y + d·(row r of the new B⁻¹), where d = c_j − yᵀA_j is
			// the entering column's reduced cost. All other terms of
			// c_B'·B'⁻¹ cancel, and the row is one BTRAN of a unit vector,
			// which touches only the factor entries it reaches.
			s.btranRow(r)
			for _, k := range s.rownz {
				s.y[k] += d * s.rowr[k]
			}
		}
	}
}

// spikeConfirms recomputes the entering column's reduced cost from its
// spike s.w = B⁻¹A_j as c_j − c_Bᵀw and reports whether it confirms the
// improvement pricing found in direction dir. The two agree up to
// rounding. Where an ill-conditioned basis makes them disagree, only a
// confirmed pivot lowers the phase objective as the iterate itself
// measures it, so rejecting the rest keeps two pivots from undoing each
// other forever.
func (s *simplex) spikeConfirms(j int, dir float64, phase1 bool, tol float64) bool {
	d := s.phaseCost(j, phase1)
	for _, i := range s.wnz {
		d -= s.phaseCost(s.basis[i], phase1) * s.w[i]
	}
	return dir*d < -tol
}

// rejectEntering handles an entering column whose spike did not confirm
// its priced improvement. With etas on file it refactorises and recomputes
// the duals, so the column is priced again over fresh factors; over fresh
// factors the disagreement is the basis's own rounding, and the column is
// excluded from pricing until the next pivot.
func (s *simplex) rejectEntering(j int, phase1 bool) {
	s.cand = s.cand[:0]
	if s.eta.count() > 0 && s.refactor() {
		s.computeDuals(phase1)
		return
	}
	s.rejected = append(s.rejected, int32(j))
}

// priceable reports whether nonbasic column j may enter: not basic, not
// fixed, and not excluded by rejectEntering at the current basis.
func (s *simplex) priceable(j int) bool {
	//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
	if s.stat[j] == statusBasic || s.lo[j] == s.hi[j] {
		return false
	}
	for _, r := range s.rejected {
		if int(r) == j {
			return false
		}
	}
	return true
}

// candCap is the candidate-list capacity: enough breadth that a drain phase
// survives several pivots, capped so list re-pricing stays cheap.
func (s *simplex) candCap() int {
	k := s.nTot / 8
	if k < 8 {
		k = 8
	}
	if k > 64 {
		k = 64
	}
	return k
}

// candTTL is how many pivots a harvested list may serve before it is
// considered stale and rebuilt from a fresh full sweep.
func (s *simplex) candTTL() int { return s.candCap() }

// reducedCost returns c_j − yᵀA_j for the active phase objective against
// the current (possibly incrementally maintained) duals.
func (s *simplex) reducedCost(j int, phase1 bool) float64 {
	if j < s.n {
		c := &s.csc
		acc := 0.0
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			if yi := s.y[c.rowIdx[t]]; yi != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero dual contributes nothing to the dot product
				acc += yi * c.val[t]
			}
		}
		return s.phaseCost(j, phase1) - acc
	}
	return s.phaseCost(j, phase1) - s.y[j-s.n]
}

// enteringDir classifies a nonbasic column with reduced cost d: +1 to
// increase from lower, −1 to decrease from upper, 0 when not attractive;
// score is the Dantzig score |d| when eligible. It mirrors the eligibility
// cases of priceEntering exactly.
func enteringDir(st varStatus, d, tol float64) (dir, score float64) {
	switch st {
	case statusAtLower:
		if d < -tol {
			return 1, -d
		}
	case statusAtUpper:
		if d > tol {
			return -1, d
		}
	case statusFree:
		if d < -tol {
			return 1, -d
		}
		if d > tol {
			return -1, d
		}
	}
	return 0, 0
}

// pickCandidate drains the candidate list: entries that went basic, became
// fixed, or no longer price attractively are dropped in place, and the
// best-priced survivor is returned with its direction.
func (s *simplex) pickCandidate(phase1 bool, tol float64) (int, float64) {
	bestJ, bestDir, bestScore := -1, 0.0, tol
	keep := s.cand[:0]
	for _, cj := range s.cand {
		j := int(cj)
		if !s.priceable(j) {
			continue
		}
		d := s.reducedCost(j, phase1)
		dir, score := enteringDir(s.stat[j], d, tol)
		if dir == 0 { //lint:ignore rentlint/floatcmp dir is a ±1/0 sentinel assigned literally above, never computed
			continue
		}
		keep = append(keep, cj)
		if score > bestScore {
			bestJ, bestDir, bestScore = j, dir, score
		}
	}
	s.cand = keep
	return bestJ, bestDir
}

// rebuildCandidates recomputes exact duals, runs one full Dantzig sweep
// returning the best entering column, and harvests the candCap() highest-
// scoring eligible columns into the candidate list for the following
// pivots to drain.
func (s *simplex) rebuildCandidates(phase1 bool, tol float64) (int, float64) {
	s.computeDuals(phase1)
	s.sweeps++
	s.candAge = 0
	kcap := s.candCap()
	s.cand = s.cand[:0]
	s.candScore = s.candScore[:0]
	weak := -1 // index of the lowest-scoring stored candidate once full
	bestJ, bestDir, bestScore := -1, 0.0, tol
	for j := 0; j < s.nTot; j++ { // artificials never re-enter
		if !s.priceable(j) {
			continue
		}
		d := s.reducedCost(j, phase1)
		dir, score := enteringDir(s.stat[j], d, tol)
		if dir == 0 { //lint:ignore rentlint/floatcmp dir is a ±1/0 sentinel assigned literally above, never computed
			continue
		}
		if score > bestScore {
			bestJ, bestDir, bestScore = j, dir, score
		}
		if len(s.cand) < kcap {
			s.cand = append(s.cand, int32(j))
			s.candScore = append(s.candScore, score)
			if len(s.cand) == kcap {
				weak = argminFloat(s.candScore)
			}
		} else if score > s.candScore[weak] {
			s.cand[weak] = int32(j)
			s.candScore[weak] = score
			weak = argminFloat(s.candScore)
		}
	}
	return bestJ, bestDir
}

// argminFloat returns the index of the smallest element.
func argminFloat(v []float64) int {
	w := 0
	for t := 1; t < len(v); t++ {
		if v[t] < v[w] {
			w = t
		}
	}
	return w
}

// priceEntering selects an entering column and movement direction
// (+1 increase, −1 decrease), or (-1, 0) at optimality.
func (s *simplex) priceEntering(phase1 bool, tol float64) (int, float64) {
	limit := s.nTot // artificials never re-enter
	bestJ, bestDir, bestScore := -1, 0.0, tol
	for j := 0; j < limit; j++ {
		if !s.priceable(j) {
			continue
		}
		var d float64
		if j < s.n {
			d = s.phaseCost(j, phase1) - s.acc[j]
		} else {
			d = s.phaseCost(j, phase1) - s.y[j-s.n]
		}
		var dir, score float64
		switch s.stat[j] {
		case statusAtLower:
			if d < -tol {
				dir, score = 1, -d
			}
		case statusAtUpper:
			if d > tol {
				dir, score = -1, d
			}
		case statusFree:
			if d < -tol {
				dir, score = 1, -d
			} else if d > tol {
				dir, score = -1, d
			}
		}
		if dir == 0 { //lint:ignore rentlint/floatcmp dir is a ±1/0 sentinel assigned literally above, never computed
			continue
		}
		if s.bland {
			return j, dir // first eligible index
		}
		if score > bestScore {
			bestJ, bestDir, bestScore = j, dir, score
		}
	}
	return bestJ, bestDir
}

type pivotStatus int8

const (
	statusPivotOK pivotStatus = iota
	statusPivotUnbounded
)

// pivot advances the entering column j in direction dir, performing either a
// bound flip or a basis exchange; s.w must hold the spike B⁻¹A_j computed by
// ftranSpike. In repair mode (the restricted shifted phase 1 run by
// runRepair) basic columns that violate a bound block only at the bound
// they violate — crossing it would flip their ±1 infeasibility cost
// mid-step — while feasible basics block as in a normal phase, so the
// repair never trades one violation for another.
func (s *simplex) pivot(j int, dir float64, repair bool, tol float64) pivotStatus {
	s.lastLeave = -1
	// Ratio test: x_B(t) = x_B − t·dir·w for step t ≥ 0. The pivot
	// threshold is relative to the column's largest entry: an absolute one
	// admits rounding noise left by cancellation in a column of large
	// entries as a pivot, and that pivot wrecks the basis representation.
	tMax := math.Inf(1)
	leave := -1
	leaveAt := statusAtLower
	wMax := 1.0
	for _, i := range s.wnz {
		if a := math.Abs(s.w[i]); a > wMax {
			wMax = a
		}
	}
	pivTol := num.PivotTol * wMax
	for _, i32 := range s.wnz {
		i := int(i32)
		g := dir * s.w[i]
		if math.Abs(g) <= pivTol {
			continue
		}
		bj := s.basis[i]
		var t float64
		var hit varStatus
		switch {
		case repair && s.xval[bj] < s.lo[bj]-num.FeasTol:
			if g > 0 {
				continue // moving further below its lower bound never blocks
			}
			t = (s.xval[bj] - s.lo[bj]) / g
			hit = statusAtLower
		case repair && s.xval[bj] > s.hi[bj]+num.FeasTol:
			if g < 0 {
				continue // moving further above its upper bound never blocks
			}
			t = (s.xval[bj] - s.hi[bj]) / g
			hit = statusAtUpper
		case g > 0: // basic value decreases toward its lower bound
			if math.IsInf(s.lo[bj], -1) {
				continue
			}
			t = (s.xval[bj] - s.lo[bj]) / g
			hit = statusAtLower
		default: // basic value increases toward its upper bound
			if math.IsInf(s.hi[bj], 1) {
				continue
			}
			t = (s.xval[bj] - s.hi[bj]) / g
			hit = statusAtUpper
		}
		if t < -tol {
			t = 0
		}
		better := t < tMax-tol
		tie := !better && t < tMax+tol
		if better || (tie && s.bland && (leave < 0 || bj < s.basis[leave])) ||
			(tie && !s.bland && leave >= 0 && math.Abs(s.w[i]) > math.Abs(s.w[leave])) {
			tMax, leave, leaveAt = math.Max(t, 0), i, hit
		}
	}
	// The entering column itself blocks at its opposite bound.
	span := s.hi[j] - s.lo[j]
	if !math.IsInf(span, 1) && span < tMax {
		// Bound flip: no basis change.
		t := span
		s.stepBasics(t * dir)
		if dir > 0 {
			s.xval[j], s.stat[j] = s.hi[j], statusAtUpper
		} else {
			s.xval[j], s.stat[j] = s.lo[j], statusAtLower
		}
		s.noteDegeneracy(t, tol)
		return statusPivotOK
	}
	if leave < 0 {
		return statusPivotUnbounded
	}
	t := tMax
	s.stepBasics(t * dir)
	out := s.basis[leave]
	if leaveAt == statusAtLower {
		s.xval[out], s.stat[out] = s.lo[out], statusAtLower
	} else {
		s.xval[out], s.stat[out] = s.hi[out], statusAtUpper
	}
	s.inRow[out] = -1
	s.xval[j] += t * dir
	s.stat[j] = statusBasic
	s.basis[leave] = j
	s.inRow[j] = leave
	s.lastLeave = leave
	s.noteDegeneracy(t, tol)
	s.pushEta(leave) // the ratio test admitted |w[leave]| > pivTol
	return statusPivotOK
}

// stepBasics moves every basic value by −t times its spike entry.
func (s *simplex) stepBasics(t float64) {
	for _, i := range s.wnz {
		s.xval[s.basis[i]] -= t * s.w[i]
	}
}

func (s *simplex) noteDegeneracy(t, tol float64) {
	if t <= tol {
		s.degenerate++
		if s.degenerate > 4*(s.m+10) {
			s.bland = true
		}
	} else {
		s.degenerate = 0
		s.bland = false
	}
}

// computeBasicValues recomputes x_B = B⁻¹ (b − N x_N) from the nonbasic rest
// values. Nonbasic slack and artificial columns always rest at exactly 0
// (their only finite bound), so only structural columns contribute.
func (s *simplex) computeBasicValues() {
	m := s.m
	r := s.rhs
	copy(r, s.p.B)
	for j := 0; j < s.n; j++ {
		if s.stat[j] == statusBasic {
			continue
		}
		v := s.xval[j]
		if v == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: zero nonbasic values contribute nothing to the residual
			continue
		}
		c := &s.csc
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			r[c.rowIdx[t]] -= c.val[t] * v
		}
	}
	s.ftran(r)
	for i := 0; i < m; i++ {
		s.xval[s.basis[i]] = r[i]
	}
}

// result assembles a Solution. feasiblePoint reports whether the current
// iterate satisfies the constraints and bounds; X/Obj are exported only for
// a proven optimum or for an iteration limit / cancellation that fired at a
// feasible (phase-2) point — a stop mid-phase-1 or mid-repair must not leak
// a partially-pivoted iterate that downstream pruning could mistake for a
// valid bound.
func (s *simplex) result(st Status, feasiblePoint bool) *Solution {
	sol := &Solution{
		Status:           st,
		Iterations:       s.iters,
		PricingSweeps:    s.sweeps,
		CandidateHits:    s.candHits,
		NNZ:              s.csc.nnz(),
		DualIters:        s.dualIters,
		EtaCount:         s.etaCount,
		Refactorizations: s.refactorizations,
	}
	if st == StatusOptimal || ((st == StatusIterLimit || st == StatusCanceled) && feasiblePoint) {
		sol.X = make([]float64, s.n)
		obj := 0.0
		for j := 0; j < s.n; j++ {
			v := s.xval[j]
			// Snap to bounds to remove tolerance-scale noise.
			if !math.IsInf(s.lo[j], -1) && math.Abs(v-s.lo[j]) < num.SnapTol {
				v = s.lo[j]
			}
			if !math.IsInf(s.hi[j], 1) && math.Abs(v-s.hi[j]) < num.SnapTol {
				v = s.hi[j]
			}
			sol.X[j] = v
			obj += s.p.C[j] * v
		}
		sol.Obj = obj
	}
	return sol
}
