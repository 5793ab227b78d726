package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rentplan/internal/mip"
	"rentplan/internal/num"
	"rentplan/internal/scenario"
)

// Risk-averse SRRP: instead of minimising only the expected cost (Eq. 9),
// minimise the mean-CVaR objective
//
//	(1−λ)·E[cost] + λ·CVaR_α(cost),
//
// where cost is the per-scenario (root-to-leaf) realised cost and
// CVaR_α is the expected cost of the worst (1−α) tail. λ = 0 recovers the
// paper's SRRP exactly; λ → 1 with α near 1 plans against worst-case price
// scenarios. Uses the Rockafellar–Uryasev linearisation
// CVaR_α = min_η η + E[(cost − η)⁺]/(1−α), which keeps the deterministic
// equivalent a MILP.

// CVaRPlan is the solution of the risk-averse model.
type CVaRPlan struct {
	*StochasticPlan
	// Objective is the optimised mean-CVaR value; ExpCost (embedded) is the
	// plan's plain expected cost; CVaR is the achieved tail expectation and
	// Eta the optimal VaR level η.
	Objective, CVaR, Eta float64
	// ScenarioCosts holds the realised cost of every leaf scenario.
	ScenarioCosts []float64
}

// SolveSRRPCVaR solves the risk-averse deterministic equivalent by
// branch-and-bound. Intended for the moderate tree sizes of short-horizon
// planning; λ ∈ [0,1], α ∈ [0,1).
func SolveSRRPCVaR(par Params, tree *scenario.Tree, dem []float64, lambda, alpha float64) (*CVaRPlan, error) {
	return SolveSRRPCVaRCtx(context.Background(), par, tree, dem, lambda, alpha)
}

// SolveSRRPCVaRCtx is SolveSRRPCVaR under a context, threading ctx into the
// branch-and-bound solve; a deadline-expired or canceled search with an
// incumbent yields a degraded plan (StochasticPlan.Degraded/Gap). A
// background context is bit-identical to SolveSRRPCVaR.
func SolveSRRPCVaRCtx(ctx context.Context, par Params, tree *scenario.Tree, dem []float64, lambda, alpha float64) (*CVaRPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: CVaR-SRRP canceled: %w", err)
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
		return nil, errors.New("core: demand/stage mismatch")
	}
	if lambda < 0 || lambda > 1 {
		return nil, fmt.Errorf("core: lambda %v outside [0,1]", lambda)
	}
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: alpha %v outside [0,1)", alpha)
	}
	if par.Capacitated() {
		return nil, errors.New("core: capacitated CVaR-SRRP not supported")
	}
	n := tree.N()
	leaves := tree.Leaves()
	L := len(leaves)
	// Variable layout: [α_v, β_v, χ_v]·n, then η, then u_l per leaf.
	ix := MILPIndex{T: n}
	etaIx := 3 * n
	uIx := func(l int) int { return 3*n + 1 + l }
	nv := 3*n + 1 + L

	S := tree.Stages()
	remaining := make([]float64, S+1)
	for s := S - 1; s >= 0; s-- {
		remaining[s] = remaining[s+1] + dem[s]
	}
	lpp := newLP(nv)
	unit := par.UnitGenCost()
	hold := par.HoldingCost()
	transferOut := 0.0
	for _, d := range dem {
		transferOut += par.Pricing.TransferOutPerGB * d
	}
	// Objective: (1−λ)Σ p_v(stage costs) + λ(η + Σ p_l u_l/(1−α)).
	for v := 0; v < n; v++ {
		pv := tree.Prob[v]
		lpp.C[ix.Alpha(v)] = (1 - lambda) * pv * unit
		lpp.C[ix.Beta(v)] = (1 - lambda) * pv * hold
		lpp.C[ix.Chi(v)] = (1 - lambda) * pv * tree.Price[v]
		lpp.Upper[ix.Chi(v)] = 1
	}
	lpp.C[etaIx] = lambda
	lpp.Lower[etaIx] = math.Inf(-1) // η is free
	for l, leaf := range leaves {
		lpp.C[uIx(l)] = lambda * tree.Prob[leaf] / (1 - alpha)
	}
	// Flow constraints per vertex (same as BuildSRRPMILP).
	for v := 0; v < n; v++ {
		rhs := dem[tree.Stage[v]]
		if v == 0 {
			rhs -= par.Epsilon
			addRowNZ(lpp, eqRel, rhs,
				nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1})
		} else {
			addRowNZ(lpp, eqRel, rhs,
				nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1}, nz{ix.Beta(tree.Parent[v]), 1})
		}
		addRowNZ(lpp, leRel, 0,
			nz{ix.Alpha(v), 1}, nz{ix.Chi(v), -remaining[tree.Stage[v]]})
		addRowNZ(lpp, leRel, 0,
			nz{ix.Alpha(v), 1}, nz{ix.Beta(v), -1}, nz{ix.Chi(v), -dem[tree.Stage[v]]})
	}
	// CVaR tail rows: u_l + η − varCost_l ≥ transferOut (per-leaf constant).
	for l, leaf := range leaves {
		path := tree.Path(leaf)
		ents := make([]nz, 0, 2+3*len(path))
		ents = append(ents, nz{uIx(l), 1}, nz{etaIx, 1})
		for _, v := range path {
			ents = append(ents,
				nz{ix.Alpha(v), -unit}, nz{ix.Beta(v), -hold}, nz{ix.Chi(v), -tree.Price[v]})
		}
		addRowNZ(lpp, geRel, transferOut, ents...)
	}
	ints := make([]bool, nv)
	for v := 0; v < n; v++ {
		ints[ix.Chi(v)] = true
	}
	solverOpts := par.Solver
	if solverOpts.MaxNodes <= 0 {
		solverOpts.MaxNodes = 300000
	}
	sol, err := mip.SolveCtx(ctx, &mip.Problem{LP: lpp, Integer: ints}, solverOpts)
	if err != nil {
		return nil, err
	}
	degraded := sol.Status != mip.StatusOptimal
	switch sol.Status {
	case mip.StatusOptimal, mip.StatusFeasible:
	case mip.StatusTimeLimit, mip.StatusCanceled:
		if sol.X == nil {
			return nil, fmt.Errorf("core: CVaR solve status %v before finding an incumbent", sol.Status)
		}
	default:
		return nil, fmt.Errorf("core: CVaR solve status %v", sol.Status)
	}
	alphaV := make([]float64, n)
	betaV := make([]float64, n)
	chiV := make([]bool, n)
	for v := 0; v < n; v++ {
		alphaV[v] = sol.X[ix.Alpha(v)]
		betaV[v] = sol.X[ix.Beta(v)]
		chiV[v] = sol.X[ix.Chi(v)] > 0.5
	}
	plan := assembleStochasticPlan(par, tree, dem, alphaV, betaV, chiV)
	plan.Degraded = degraded
	if degraded {
		plan.Gap = sol.Gap
	}
	cv := &CVaRPlan{
		StochasticPlan: plan,
		Objective:      sol.Obj,
	}
	// Realised scenario costs; the achieved CVaR is recomputed from them
	// (the LP's η is degenerate when λ = 0, since it then carries no cost).
	cv.ScenarioCosts = make([]float64, L)
	probs := make([]float64, L)
	for l, leaf := range leaves {
		c := transferOut
		for _, v := range tree.Path(leaf) {
			if chiV[v] {
				c += tree.Price[v]
			}
			c += unit*alphaV[v] + hold*betaV[v]
		}
		cv.ScenarioCosts[l] = c
		probs[l] = tree.Prob[leaf]
	}
	cv.Eta, cv.CVaR = computeCVaR(cv.ScenarioCosts, probs, alpha)
	return cv, nil
}

// computeCVaR evaluates VaR_α (the α-quantile η*) and CVaR_α of a discrete
// cost distribution via the Rockafellar–Uryasev formula.
func computeCVaR(costs, probs []float64, alpha float64) (eta, cvar float64) {
	// Sort (cost, prob) pairs by cost.
	idx := make([]int, len(costs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ { // insertion sort: L is small
		for j := i; j > 0 && costs[idx[j]] < costs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	// η* = smallest cost with cumulative probability ≥ α.
	cum := 0.0
	eta = costs[idx[len(idx)-1]]
	for _, i := range idx {
		cum += probs[i]
		if cum >= alpha-num.DriftTol {
			eta = costs[i]
			break
		}
	}
	tail := 0.0
	for i := range costs {
		if excess := costs[i] - eta; excess > 0 {
			tail += probs[i] * excess
		}
	}
	return eta, eta + tail/(1-alpha)
}
