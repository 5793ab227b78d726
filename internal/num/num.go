// Package num centralises the numerical tolerances used across the solver
// stack (internal/lp, internal/mip, internal/core) and provides the approved
// tolerance-comparison helper.
//
// Every constant documents the invariant it protects. Code in the solver
// packages must reference these named constants instead of repeating the
// literals; the rentlint/tolconst analyzer enforces this, and
// rentlint/floatcmp enforces that float comparisons either go through the
// helper below or carry an explicit justification.
package num

import "math"

const (
	// LPTol is the default simplex feasibility/optimality tolerance
	// (lp.Options.Tol). It protects the Eq. 1–7 / 13–19 optimality
	// invariant: a basis is accepted as optimal only when every reduced
	// cost is within LPTol of the correct sign, so two runs that reach the
	// same basis report the same proven optimum.
	LPTol = 1e-9

	// PivotTol is the minimum |pivot| magnitude admitted by the ratio tests
	// and the basis update. It protects B⁻¹ from amplification by near-zero
	// pivots. The primal ratio test scales it by max(1, ‖B⁻¹A_j‖∞), so a
	// row whose entry is that small relative to the column is treated as
	// non-blocking; the dual ratio test applies it as an absolute bound.
	PivotTol = 1e-10

	// EvictPivotTol is the minimum pivot magnitude for swapping a
	// zero-valued artificial variable out of the basis after phase 1. It is
	// looser than PivotTol because eviction pivots are degenerate (the
	// primal point does not move) and only the conditioning of B⁻¹ is at
	// stake.
	EvictPivotTol = 1e-7

	// SingularTol is the partial-pivoting threshold of the periodic basis
	// refactorisation: a column whose best available pivot is below it is
	// declared numerically singular and the incremental inverse is kept.
	SingularTol = 1e-12

	// SnapTol is the bound-snapping radius applied to primal values when a
	// solution is extracted: a value within SnapTol of a finite bound is
	// reported as exactly that bound, so downstream exact comparisons on
	// plan quantities (e.g. χ ∈ {0,1}) see clean values.
	SnapTol = 1e-9

	// FeasTol is the absolute row/bound feasibility tolerance used when a
	// candidate point is checked against the original problem (phase-1
	// residual acceptance, incumbent verification). It protects against
	// declaring an infeasible point integer-feasible, which would corrupt
	// the proven optimum.
	FeasTol = 1e-7

	// DualFeasTol is the reduced-cost sign tolerance under which an
	// installed warm-start basis is classified dual feasible and routed to
	// the dual simplex (lp.SolveFrom). It is deliberately looser than LPTol:
	// a freshly refactorised child basis re-prices the parent's optimal
	// reduced costs with different rounding, and a spurious "dual
	// infeasible" verdict only costs the primal-repair detour — a reduced
	// cost whose sign is wrong by less than DualFeasTol enters the dual
	// ratio test as a near-zero-ratio candidate and is pivoted (or flipped)
	// to the consistent side within the same tolerance.
	DualFeasTol = 1e-7

	// IntTol is the integrality tolerance of branch-and-bound: a
	// relaxation value within IntTol of an integer counts as integral.
	// Branching fractions are measured against the same constant so the
	// branch dichotomy x ≤ ⌊v⌋ ∨ x ≥ ⌊v⌋+1 stays exact.
	IntTol = 1e-6

	// RelGapTol is the relative optimality gap at which branch-and-bound
	// declares the incumbent proven optimal. It must dominate LPTol,
	// otherwise node relaxations cannot certify the gap they are asked to
	// close.
	RelGapTol = 1e-9

	// DriftTol bounds accumulated floating-point drift on quantities that
	// are exactly equal in exact arithmetic: the strict-improvement slack of
	// the incumbent test (a "new" incumbent must beat the old one by more
	// than DriftTol), probability-mass accumulation, and uniform-capacity
	// detection. Keeping it two orders below RelGapTol·|obj| makes the
	// "identical proven optimum for every worker count" guarantee hold: no
	// worker can publish a tie as an improvement.
	DriftTol = 1e-12

	// DemandTol is the shortage threshold of the execution simulator: a
	// demand shortfall below it is rounding noise from plan extraction
	// (see SnapTol), not a real unserved-demand event.
	DemandTol = 1e-9

	// DecompGapTol is the convergence gap of the nested L-shaped method
	// (benders.SolveTreeLP): the relative gap between the root bound and
	// the cost of the forward-pass policy at which the iteration declares
	// the bound proven. It must dominate LPTol, otherwise the vertex LPs
	// cannot certify the gap the decomposition is asked to close.
	DecompGapTol = 1e-7

	// ThetaFloorTol is the slack below zero admitted on the cost-to-go
	// variable θ of the nested L-shaped vertex LPs. All stage costs are
	// nonnegative, so θ ≥ 0 is a valid bound; the tiny negative floor
	// absorbs the LP-rounding of early sweeps (a cut evaluated within
	// LPTol of zero must not make the vertex LP infeasible before the
	// bound has converged).
	ThetaFloorTol = 1e-6

	// ProbMassTol is the drift allowance on probability masses that are
	// exactly 1 in exact arithmetic (the total path mass of a scenario
	// fan, the upper bound on a tree vertex's probability). It bounds
	// the accumulated rounding of summing a few hundred probabilities,
	// far above DriftTol because the inputs themselves are often quotients
	// of empirical counts.
	ProbMassTol = 1e-6

	// CutDedupTol is the relative coincidence tolerance of the nested
	// Benders cut warehouse: a freshly generated cut whose slope and
	// right-hand side both lie within CutDedupTol (scaled by magnitude) of
	// a stored cut is the same supporting hyperplane re-derived at the
	// same trial point, and is dropped rather than stored. It must stay
	// well below DecompGapTol so deduplication can never discard a cut
	// that would still move the bound by more than the convergence gap.
	CutDedupTol = 1e-9
)

// Zero reports whether x is within tol of zero.
func Zero(x, tol float64) bool { return math.Abs(x) <= tol }
