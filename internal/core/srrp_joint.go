package core

import (
	"context"
	"errors"
	"fmt"

	"rentplan/internal/lotsize"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
)

// SolveSRRPVertexDemands extends SRRP to jointly uncertain prices and
// demands — the paper's stated future work ("stochastic optimization
// solutions for cloud resource provisioning with time-varying workloads").
// Instead of one known demand per stage, every scenario-tree vertex carries
// its own demand realisation; decisions still satisfy non-anticipativity by
// construction. Uncapacitated instances are solved by the exact tree DP;
// capacitated ones by the MILP path (BuildSRRPVertexDemandsMILP).
//
// dem[v] is the demand realised in the state of vertex v (len = tree.N()).
func SolveSRRPVertexDemands(par Params, tree *scenario.Tree, dem []float64) (*StochasticPlan, error) {
	return SolveSRRPVertexDemandsCtx(context.Background(), par, tree, dem)
}

// SolveSRRPVertexDemandsCtx is SolveSRRPVertexDemands under a context. The
// MILP path threads ctx into branch-and-bound and accepts a deadline-expired
// incumbent as a degraded plan; the exact tree DP is fast enough that only an
// upfront cancellation check applies. A background context is bit-identical
// to SolveSRRPVertexDemands.
func SolveSRRPVertexDemandsCtx(ctx context.Context, par Params, tree *scenario.Tree, dem []float64) (*StochasticPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: joint-uncertainty SRRP canceled: %w", err)
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
	n := tree.N()
	if len(dem) != n {
		return nil, fmt.Errorf("core: %d demands for %d vertices", len(dem), n)
	}
	for v, d := range dem {
		if !isFinite(d) || d < 0 {
			return nil, fmt.Errorf("core: demand %v at vertex %d not a finite non-negative number", d, v)
		}
	}
	if par.Capacitated() {
		return solveSRRPVertexDemandsMILP(ctx, par, tree, dem)
	}
	tp := &lotsize.TreeProblem{
		Parent:           tree.Parent,
		Prob:             tree.Prob,
		Setup:            tree.Price,
		Unit:             constants(n, par.UnitGenCost()),
		Hold:             constants(n, par.HoldingCost()),
		Demand:           dem,
		InitialInventory: par.Epsilon,
	}
	sol, err := lotsize.SolveTree(tp)
	if err != nil {
		return nil, err
	}
	return assembleVertexDemandPlan(par, tree, dem, sol.Produce, sol.Inventory, sol.Setup), nil
}

// assembleVertexDemandPlan recomputes the exact expected-cost breakdown for a
// joint-uncertainty plan, where dem is indexed by vertex rather than stage.
// Like assembleStochasticPlan, the plan takes ownership of alpha, beta and
// chi.
func assembleVertexDemandPlan(par Params, tree *scenario.Tree, dem, alpha, beta []float64, chi []bool) *StochasticPlan {
	p := &StochasticPlan{Tree: tree, Alpha: alpha, Beta: beta, Chi: chi}
	for v := 0; v < tree.N(); v++ {
		pv := tree.Prob[v]
		if p.Chi[v] {
			p.Breakdown.Compute += pv * tree.Price[v]
		}
		p.Breakdown.TransferIn += pv * par.UnitGenCost() * p.Alpha[v]
		p.Breakdown.Holding += pv * par.HoldingCost() * p.Beta[v]
		p.Breakdown.TransferOut += pv * par.Pricing.TransferOutPerGB * dem[v]
	}
	p.ExpCost = p.Breakdown.Total()
	p.RootRent = p.Chi[0]
	p.RootAlpha = p.Alpha[0]
	return p
}

// solveSRRPVertexDemandsMILP handles the capacitated joint-uncertainty
// deterministic equivalent via branch-and-bound, mirroring solveSRRPMILP.
func solveSRRPVertexDemandsMILP(ctx context.Context, par Params, tree *scenario.Tree, dem []float64) (*StochasticPlan, error) {
	prob, ix, err := BuildSRRPVertexDemandsMILP(par, tree, dem)
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
			return nil, fmt.Errorf("core: joint-uncertainty SRRP solve stopped with status %v before finding an incumbent", sol.Status)
		}
		degraded = true
	case mip.StatusInfeasible:
		return nil, errors.New("core: joint-uncertainty SRRP infeasible (capacity too tight for demand)")
	default:
		return nil, fmt.Errorf("core: joint-uncertainty SRRP solve stopped with status %v", sol.Status)
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
	p := assembleVertexDemandPlan(par, tree, dem, alpha, beta, chi)
	p.Degraded = degraded
	if degraded {
		p.Gap = sol.Gap
	}
	return p, nil
}

// BuildSRRPVertexDemandsMILP constructs the deterministic equivalent MILP of
// the joint price/demand-uncertainty SRRP: the vertex-demand analogue of
// BuildSRRPMILP. The forcing big-B for vertex v is the largest path demand
// Σ dem over any root-to-leaf continuation through v, computed in one
// reverse-topological sweep.
func BuildSRRPVertexDemandsMILP(par Params, tree *scenario.Tree, dem []float64) (*mip.Problem, MILPIndex, error) {
	if err := par.validate(); err != nil {
		return nil, MILPIndex{}, err
	}
	if err := tree.Validate(); err != nil {
		return nil, MILPIndex{}, err
	}
	n := tree.N()
	if len(dem) != n {
		return nil, MILPIndex{}, errors.New("core: demand/vertex mismatch")
	}
	ix := MILPIndex{T: n}
	nv := 3 * n
	// maxRemain[v] bounds any useful production at v: the worst-case demand
	// on the subtree path starting at v (children are topologically after
	// their parent, so one reverse sweep suffices).
	maxRemain := append([]float64(nil), dem...)
	for v := n - 1; v >= 1; v-- {
		pa := tree.Parent[v]
		if r := dem[pa] + maxRemain[v]; r > maxRemain[pa] {
			maxRemain[pa] = r
		}
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
		// Balance: β_{π(v)} + α_v − β_v = dem_v.
		rhs := dem[v]
		if v == 0 {
			rhs -= par.Epsilon
			addRowNZ(lpp, eqRel, rhs,
				nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1})
		} else {
			addRowNZ(lpp, eqRel, rhs,
				nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1}, nz{ix.Beta(tree.Parent[v]), 1})
		}
		// Forcing with the worst-case remaining-path-demand bound.
		addRowNZ(lpp, leRel, 0,
			nz{ix.Alpha(v), 1}, nz{ix.Chi(v), -maxRemain[v]})
		// Valid inequality: α_v − β_v ≤ dem_v·χ_v.
		addRowNZ(lpp, leRel, 0,
			nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1}, nz{ix.Chi(v), -dem[v]})
		// Bottleneck per stage.
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
