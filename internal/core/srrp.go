package core

import (
	"context"
	"errors"
	"fmt"

	"rentplan/internal/lotsize"
	"rentplan/internal/lp"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
)

// StochasticPlan is the solution of SRRP's deterministic equivalent
// (Eq. 13–19): one decision vector per scenario-tree vertex, satisfying
// non-anticipativity by construction.
type StochasticPlan struct {
	Tree        *scenario.Tree
	Alpha, Beta []float64
	Chi         []bool
	// ExpCost is the expected total cost δ_exp (Eq. 9), including the
	// transfer-out term.
	ExpCost float64
	// Breakdown decomposes ExpCost by resource (expectation over states).
	Breakdown CostBreakdown
	// RootRent and RootAlpha are the implementable here-and-now decisions.
	RootRent  bool
	RootAlpha float64
	// Degraded reports that the MILP search stopped at a limit, deadline or
	// cancellation and this plan is the best incumbent rather than a proven
	// optimum; Gap is its proven relative optimality gap. Both are zero on
	// the exact DP paths and for proven-optimal MILP solves.
	Degraded bool
	Gap      float64
	// Stats is the branch-and-bound progress snapshot of the MILP path (nil
	// on the exact DP path), kept for telemetry: the serve layer turns its
	// node/warm-start/iteration counters into per-request metrics.
	Stats *mip.Stats
	// RootBasis is the optimal basis of the MILP root relaxation (nil on
	// the DP path). It is an immutable snapshot that a later solve over the
	// same tree structure can feed back through Params.Solver.RootBasis to
	// skip phase 1 at its own root.
	RootBasis *lp.Basis
}

// SolveSRRP computes an optimal stochastic rental plan on the given
// scenario tree. dem[s] is the (known) demand of stage s, s = 0 being the
// current slot; len(dem) must equal tree.Stages(). Uncapacitated instances
// use the exact tree dynamic program; capacitated ones the MILP path.
func SolveSRRP(par Params, tree *scenario.Tree, dem []float64) (*StochasticPlan, error) {
	return SolveSRRPCtx(context.Background(), par, tree, dem)
}

// SolveSRRPCtx is SolveSRRP under a context. The MILP path threads ctx into
// branch-and-bound and accepts a deadline-expired incumbent as a degraded
// plan (StochasticPlan.Degraded/Gap); the exact tree DP is fast enough that
// only an upfront cancellation check applies. A background context is
// bit-identical to SolveSRRP.
func SolveSRRPCtx(ctx context.Context, par Params, tree *scenario.Tree, dem []float64) (*StochasticPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: SRRP canceled: %w", err)
	}
	if err := par.validate(); err != nil {
		return nil, err
	}
	if tree == nil {
		return nil, errors.New("core: nil scenario tree")
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if len(dem) != tree.Stages() {
		return nil, fmt.Errorf("core: %d demand stages for %d tree stages", len(dem), tree.Stages())
	}
	for s, d := range dem {
		if !isFinite(d) || d < 0 {
			return nil, fmt.Errorf("core: demand %v at stage %d not a finite non-negative number", d, s)
		}
	}
	if par.Capacitated() {
		return solveSRRPMILP(ctx, par, tree, dem)
	}
	n := tree.N()
	tp := &lotsize.TreeProblem{
		Parent:           tree.Parent,
		Prob:             tree.Prob,
		Setup:            tree.Price,
		Unit:             constants(n, par.UnitGenCost()),
		Hold:             constants(n, par.HoldingCost()),
		Demand:           make([]float64, n),
		InitialInventory: par.Epsilon,
	}
	for v := 0; v < n; v++ {
		tp.Demand[v] = dem[tree.Stage[v]]
	}
	sol, err := lotsize.SolveTree(tp)
	if err != nil {
		return nil, err
	}
	return assembleStochasticPlan(par, tree, dem, sol.Produce, sol.Inventory, sol.Setup), nil
}

// assembleStochasticPlan wraps per-vertex decisions into a plan with its
// exact expected-cost breakdown. The plan takes ownership of alpha, beta
// and chi: every caller allocates them for this call alone.
func assembleStochasticPlan(par Params, tree *scenario.Tree, dem []float64, alpha, beta []float64, chi []bool) *StochasticPlan {
	p := &StochasticPlan{Tree: tree, Alpha: alpha, Beta: beta, Chi: chi}
	for v := 0; v < tree.N(); v++ {
		pv := tree.Prob[v]
		if p.Chi[v] {
			p.Breakdown.Compute += pv * tree.Price[v]
		}
		p.Breakdown.TransferIn += pv * par.UnitGenCost() * p.Alpha[v]
		p.Breakdown.Holding += pv * par.HoldingCost() * p.Beta[v]
		p.Breakdown.TransferOut += pv * par.Pricing.TransferOutPerGB * dem[tree.Stage[v]]
	}
	p.ExpCost = p.Breakdown.Total()
	p.RootRent = p.Chi[0]
	p.RootAlpha = p.Alpha[0]
	return p
}

// solveSRRPMILP handles the capacitated deterministic equivalent via
// branch-and-bound. Capacity[s] bounds stage s. A search stopped by a
// limit, deadline or cancellation still yields a plan when an incumbent
// exists — marked Degraded with its proven gap.
func solveSRRPMILP(ctx context.Context, par Params, tree *scenario.Tree, dem []float64) (*StochasticPlan, error) {
	prob, ix, err := BuildSRRPMILP(par, tree, dem)
	if err != nil {
		return nil, err
	}
	sol, err := mip.SolveCtx(ctx, prob, par.Solver)
	if err != nil {
		return nil, err
	}
	degraded := false
	switch sol.Status {
	case mip.StatusOptimal:
	case mip.StatusFeasible:
		degraded = true
	case mip.StatusTimeLimit, mip.StatusCanceled:
		if sol.X == nil {
			return nil, fmt.Errorf("core: SRRP solve stopped with status %v before finding an incumbent", sol.Status)
		}
		degraded = true
	case mip.StatusInfeasible:
		return nil, errors.New("core: SRRP infeasible (capacity too tight for demand)")
	default:
		return nil, fmt.Errorf("core: SRRP solve stopped with status %v", sol.Status)
	}
	n := tree.N()
	alpha := make([]float64, n)
	beta := make([]float64, n)
	chi := make([]bool, n)
	for v := 0; v < n; v++ {
		alpha[v] = sol.X[ix.Alpha(v)]
		beta[v] = sol.X[ix.Beta(v)]
		chi[v] = sol.X[ix.Chi(v)] > 0.5
	}
	p := assembleStochasticPlan(par, tree, dem, alpha, beta, chi)
	p.Degraded = degraded
	if degraded {
		p.Gap = sol.Gap
	}
	p.Stats = &sol.Stats
	p.RootBasis = sol.RootBasis
	return p, nil
}

// BuildSRRPMILP constructs the deterministic equivalent MILP (13)–(19).
// Exported for the DP-vs-MILP ablation benchmarks.
func BuildSRRPMILP(par Params, tree *scenario.Tree, dem []float64) (*mip.Problem, MILPIndex, error) {
	if err := par.validate(); err != nil {
		return nil, MILPIndex{}, err
	}
	if err := tree.Validate(); err != nil {
		return nil, MILPIndex{}, err
	}
	n := tree.N()
	if len(dem) != tree.Stages() {
		return nil, MILPIndex{}, errors.New("core: demand/stage mismatch")
	}
	ix := MILPIndex{T: n}
	nv := 3 * n
	// Tightened forcing bound per stage: production at a stage-s vertex
	// never usefully exceeds the remaining path demand Σ_{s'≥s} D_{s'}.
	S := tree.Stages()
	remaining := make([]float64, S+1)
	for s := S - 1; s >= 0; s-- {
		remaining[s] = remaining[s+1] + dem[s]
	}
	lpp := newLP(nv)
	for v := 0; v < n; v++ {
		pv := tree.Prob[v]
		lpp.C[ix.Alpha(v)] = pv * par.UnitGenCost()
		lpp.C[ix.Beta(v)] = pv * par.HoldingCost()
		lpp.C[ix.Chi(v)] = pv * tree.Price[v]
		lpp.Upper[ix.Chi(v)] = 1
	}
	for v := 0; v < n; v++ {
		// (14) balance: β_{π(v)} + α_v − β_v = D_{τ(v)}.
		rhs := dem[tree.Stage[v]]
		if v == 0 {
			rhs -= par.Epsilon
			addRowNZ(lpp, eqRel, rhs,
				nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1})
		} else {
			addRowNZ(lpp, eqRel, rhs,
				nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1}, nz{ix.Beta(tree.Parent[v]), 1})
		}
		// (16) forcing with the remaining-path-demand bound.
		addRowNZ(lpp, leRel, 0,
			nz{ix.Alpha(v), 1}, nz{ix.Chi(v), -remaining[tree.Stage[v]]})
		// Valid inequality: α_v − β_v ≤ D_{τ(v)}·χ_v.
		addRowNZ(lpp, leRel, 0,
			nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1}, nz{ix.Chi(v), -dem[tree.Stage[v]]})
		// (15) bottleneck per stage.
		if par.Capacitated() {
			s := tree.Stage[v]
			if s >= len(par.Capacity) {
				return nil, MILPIndex{}, fmt.Errorf("core: capacity series shorter than stages (%d < %d)", len(par.Capacity), tree.Stages())
			}
			addRowNZ(lpp, leRel, par.Capacity[s],
				nz{ix.Alpha(v), par.ConsumptionRate})
		}
	}
	ints := make([]bool, nv)
	for v := 0; v < n; v++ {
		ints[ix.Chi(v)] = true
	}
	return &mip.Problem{LP: lpp, Integer: ints}, ix, nil
}
