package lp

import (
	"math"

	"rentplan/internal/num"
)

// dual.go implements the bounded-variable dual simplex used by the warm
// path (SolveFrom/SolveFromCtx). A branch-and-bound child differs from its
// parent by a single variable bound, so the parent's optimal basis stays
// dual feasible for the child: every reduced cost keeps its optimality
// sign and only primal bound violations remain. The dual simplex drives
// those violations out directly — each pivot exchanges the most-violated
// basic variable against a nonbasic column chosen by a Harris-style
// two-pass dual ratio test with bound flips for boxed columns — without the
// feasibility detour of the restricted primal repair.
//
// Status-certification contract: the dual path never certifies
// infeasibility or unboundedness. When it cannot make progress (no eligible
// entering column — the dual-unbounded/primal-infeasible signal — or a
// numerical stall), it reports dualStalled and the caller falls back to the
// primal repair and then the bit-identical cold path, exactly as before.

// dualOutcome is the result of runDual.
type dualOutcome int8

const (
	// dualDone: every basic value is back within its bounds; phase 2
	// certifies optimality from exact duals as usual.
	dualDone dualOutcome = iota
	// dualIterLimit: the caller's MaxIter budget ran out mid-dual.
	dualIterLimit
	// dualCanceled: the solve's context was canceled mid-dual.
	dualCanceled
	// dualStalled: no eligible entering column, a numerical stall, or the
	// dual pivot budget exhausted; the caller falls back to the primal
	// repair — a stalled dual run proves nothing.
	dualStalled
)

type dualPivotStatus int8

const (
	dualPivotOK dualPivotStatus = iota
	dualPivotStall
	dualPivotRetry // refactorised mid-pivot; retry with exact numbers
)

// dualFeasible recomputes every nonbasic reduced cost exactly and reports
// whether the installed basis prices dual feasible: each reduced cost
// within num.DualFeasTol of the sign its resting bound requires. Fixed
// columns never enter, so their reduced-cost sign is irrelevant.
func (s *simplex) dualFeasible() bool {
	s.refreshDualCosts()
	for j := 0; j < s.nTot; j++ {
		//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
		if s.stat[j] == statusBasic || s.lo[j] == s.hi[j] {
			continue
		}
		d := s.dred[j]
		switch s.stat[j] {
		case statusAtLower:
			if d < -num.DualFeasTol {
				return false
			}
		case statusAtUpper:
			if d > num.DualFeasTol {
				return false
			}
		default: // statusFree
			if math.Abs(d) > num.DualFeasTol {
				return false
			}
		}
	}
	return true
}

// refreshDualCosts recomputes every reduced cost exactly from the current
// basis (dred[j] = c_j − yᵀA_j with y = c_B B⁻¹), containing the drift of
// the incremental per-pivot dual updates.
func (s *simplex) refreshDualCosts() {
	s.computeDuals(false)
	s.accumAcc()
	for j := 0; j < s.nTot; j++ {
		if s.stat[j] == statusBasic {
			s.dred[j] = 0
			continue
		}
		if j < s.n {
			s.dred[j] = s.cost[j] - s.acc[j]
		} else {
			s.dred[j] = s.cost[j] - s.y[j-s.n]
		}
	}
}

// runDual drives the primal bound violations of a dual-feasible installed
// basis to zero. The caller must have filled s.dred (dualFeasible does).
func (s *simplex) runDual() dualOutcome {
	tol := s.opts.Tol
	// One bound moved, so a handful of pivots normally suffice; the budget
	// is a generous backstop against degenerate cycling, mirroring runRepair.
	budget := s.iters + 4*(s.m+s.n) + 100
	retries := 0
	for {
		r := s.pickLeaving()
		if r < 0 {
			// Primal feasible. Re-derive the basic values from the basis
			// and re-check that drift did not re-expose a violation before
			// declaring the dual run complete.
			s.computeBasicValues()
			if s.countViolations() != 0 {
				return dualStalled
			}
			return dualDone
		}
		if s.iters >= s.opts.MaxIter {
			return dualIterLimit
		}
		if s.iters%ctxCheckInterval == 0 && s.canceled() {
			return dualCanceled
		}
		if s.iters >= budget {
			return dualStalled
		}
		switch s.dualPivot(r, tol) {
		case dualPivotOK:
			s.iters++
			s.dualIters++
			retries = 0
		case dualPivotRetry:
			retries++
			if retries > 4 {
				return dualStalled
			}
		default: // dualPivotStall
			return dualStalled
		}
	}
}

// pickLeaving selects the leaving row: the basic variable with the largest
// bound violation (first violated row under Bland's anti-cycling mode), or
// -1 when the iterate is primal feasible.
func (s *simplex) pickLeaving() int {
	r, worst := -1, num.FeasTol
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if v := s.lo[j] - s.xval[j]; v > worst {
			r, worst = i, v
			if s.bland {
				return r
			}
		}
		if v := s.xval[j] - s.hi[j]; v > worst {
			r, worst = i, v
			if s.bland {
				return r
			}
		}
	}
	return r
}

// dualSignedD returns the reduced cost of nonbasic column j signed toward
// dual feasibility (≥ 0 when the sign matches the resting bound), floored
// at zero: a within-tolerance wrong sign is a zero-ratio breakpoint, not an
// excuse to reject the column.
func (s *simplex) dualSignedD(j int) float64 {
	d := s.dred[j]
	switch s.stat[j] {
	case statusAtUpper:
		d = -d
	case statusFree:
		d = math.Abs(d)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// dualDir returns the movement direction of eligible entering column j for
// leaving-row violation v: nonbasic-at-lower columns move up, at-upper
// columns move down, and free columns move whichever way reduces |v|.
func (s *simplex) dualDir(j int, v float64) float64 {
	switch s.stat[j] {
	case statusAtUpper:
		return -1
	case statusFree:
		if v*s.alpha[j] > 0 {
			return 1
		}
		return -1
	default:
		return 1
	}
}

// dualPivot performs one dual iteration for leaving row r: BTRAN the pivot
// row, price every nonbasic column, run the bound-flipping Harris two-pass
// dual ratio test, and commit the resulting flips and basis exchange.
func (s *simplex) dualPivot(r int, tol float64) dualPivotStatus {
	out := s.basis[r]
	// V is the signed violation of the leaving variable; it leaves at the
	// bound it violates.
	var v float64
	leaveAt := statusAtLower
	switch {
	case s.xval[out] < s.lo[out]-num.FeasTol:
		v = s.xval[out] - s.lo[out] // < 0: the row value must increase
	case s.xval[out] > s.hi[out]+num.FeasTol:
		v = s.xval[out] - s.hi[out] // > 0: the row value must decrease
		leaveAt = statusAtUpper
	default:
		return dualPivotStall
	}
	s.btranRow(r)
	// α_j = (B⁻¹A_j)_r for every nonbasic column. Eligible candidates move
	// the row value toward its bound: sign(α_j·dir_j) = sign(V).
	elig := s.elig[:0]
	for j := 0; j < s.nTot; j++ {
		//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
		if s.stat[j] == statusBasic || s.lo[j] == s.hi[j] {
			continue
		}
		a := s.colDot(s.rowr, j)
		s.alpha[j] = a
		if math.Abs(a) <= num.PivotTol {
			continue
		}
		switch s.stat[j] {
		case statusAtLower:
			if v*a > 0 {
				elig = append(elig, int32(j))
			}
		case statusAtUpper:
			if v*a < 0 {
				elig = append(elig, int32(j))
			}
		default: // statusFree: may move either way
			elig = append(elig, int32(j))
		}
	}
	s.elig = elig
	if len(elig) == 0 {
		// Dual unbounded ⇒ primal infeasible; never certified here.
		return dualPivotStall
	}
	if s.bland {
		// Anti-cycling: smallest eligible column index, no flips, no Harris
		// window. elig is harvested in ascending column order.
		s.flips = s.flips[:0]
		return s.dualExchange(r, int(elig[0]), out, leaveAt, tol)
	}
	// Bound-flipping ratio test: walk the breakpoints in ratio order. A
	// candidate whose full span cannot absorb the remaining violation is
	// flipped to its opposite bound (its reduced cost crosses zero at the
	// final dual step anyway); the first candidate that can absorb it is
	// the basis exchange — chosen, Harris-style, as the largest pivot among
	// the breakpoints inside the relaxed two-pass window.
	flips := s.flips[:0]
	rem := elig
	for {
		// Pass 1: relaxed minimum ratio over the remaining candidates.
		thetaH := math.Inf(1)
		for _, cj := range rem {
			j := int(cj)
			//lint:ignore rentlint/nanprop eligible candidates passed |α| > num.PivotTol above
			if t := (s.dualSignedD(j) + tol) / math.Abs(s.alpha[j]); t < thetaH {
				thetaH = t
			}
		}
		// Pass 2: inside the window, the largest pivot that can absorb the
		// remaining violation; track the strict minimum-ratio breakpoint as
		// the flip candidate.
		q, bestA := -1, 0.0
		jmin, minRatio := -1, math.Inf(1)
		for _, cj := range rem {
			j := int(cj)
			a := math.Abs(s.alpha[j])
			// Eligible candidates passed |α| > num.PivotTol above.
			rt := s.dualSignedD(j) / a
			if rt < minRatio {
				minRatio, jmin = rt, j
			}
			if rt > thetaH {
				continue
			}
			span := s.hi[j] - s.lo[j]
			if !math.IsInf(span, 1) && a*span < math.Abs(v) {
				continue // full flip falls short: not an exchange candidate
			}
			if a > bestA {
				bestA, q = a, j
			}
		}
		if q >= 0 {
			s.flips = flips
			return s.dualExchange(r, q, out, leaveAt, tol)
		}
		// Every windowed candidate is a short boxed column: flip the
		// minimum-ratio one and absorb its step into the violation.
		j := jmin
		flips = append(flips, int32(j))
		v -= s.alpha[j] * s.dualDir(j, v) * (s.hi[j] - s.lo[j])
		for k, cj := range rem {
			if int(cj) == j {
				rem[len(rem)-1], rem[k] = rem[k], rem[len(rem)-1]
				rem = rem[:len(rem)-1]
				break
			}
		}
		if len(rem) == 0 {
			// Flips alone cannot restore the row: dual unbounded.
			s.flips = s.flips[:0]
			return dualPivotStall
		}
	}
}

// dualExchange commits the pending bound flips and the basis exchange of
// entering column q against leaving row r, records the eta update, and
// applies the O(nonbasic) incremental dual-cost update.
func (s *simplex) dualExchange(r, q, out int, leaveAt varStatus, tol float64) dualPivotStatus {
	// Bound flips first: each flipped column moves to its opposite bound
	// and its spike adjusts every basic value — including the leaving row,
	// which is why the violation is re-derived afterwards.
	for _, cj := range s.flips {
		j := int(cj)
		span := s.hi[j] - s.lo[j]
		var dlt float64
		if s.stat[j] == statusAtLower {
			s.xval[j], s.stat[j] = s.hi[j], statusAtUpper
			dlt = span
		} else {
			s.xval[j], s.stat[j] = s.lo[j], statusAtLower
			dlt = -span
		}
		s.ftranInto(j, s.w2)
		for i := 0; i < s.m; i++ {
			s.xval[s.basis[i]] -= dlt * s.w2[i]
		}
	}
	s.flips = s.flips[:0]
	// Fresh spike. The pivot-row entry must agree with the priced α in
	// magnitude and sign; a disagreement means the eta file has drifted —
	// refactorise and retry with exact numbers.
	s.ftranSpike(q)
	piv := s.w[r]
	if math.Abs(piv) <= num.PivotTol || piv*s.alpha[q] < 0 {
		if s.eta.count() == 0 || !s.refactor() {
			return dualPivotStall
		}
		s.refreshDualCosts()
		return dualPivotRetry
	}
	var bound float64
	if leaveAt == statusAtLower {
		bound = s.lo[out]
	} else {
		bound = s.hi[out]
	}
	v := s.xval[out] - bound
	// |piv| > num.PivotTol was just checked.
	t := v / piv
	s.stepBasics(t)
	// α_q and piv agree in sign and |piv| > num.PivotTol, so α_q is nonzero.
	gamma := s.dred[q] / s.alpha[q]
	s.xval[out], s.stat[out] = bound, leaveAt
	s.inRow[out] = -1
	s.xval[q] += t
	s.stat[q] = statusBasic
	s.basis[r] = q
	s.inRow[q] = r
	s.etaCount++
	// Incremental dual update: y gains γ·(row r of B⁻¹), so every nonbasic
	// reduced cost drops by γ·α_j; the leaving column (α = 1 in its own
	// row) ends at −γ and the entering column at exactly zero.
	for j := 0; j < s.nTot; j++ {
		if j == out || s.stat[j] == statusBasic {
			continue
		}
		//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
		if s.lo[j] == s.hi[j] {
			continue
		}
		s.dred[j] -= gamma * s.alpha[j]
	}
	s.dred[q] = 0
	s.dred[out] = -gamma
	s.noteDegeneracy(math.Abs(gamma), tol)
	if s.pushEta(r) {
		s.refreshDualCosts()
	}
	return dualPivotOK
}
