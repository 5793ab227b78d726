package core

import (
	"errors"
	"math"
	"math/rand"

	"rentplan/internal/scenario"
)

// EvaluateStochasticPlanMC estimates the out-of-sample expected cost of a
// stochastic plan by Monte Carlo: price scenarios are sampled from the
// plan's own tree, the plan's per-vertex decisions are replayed along the
// sampled path, and the realised costs are averaged. For a plan evaluated
// on its own tree this converges to ExpCost, which the tests assert; it is
// also the tool for evaluating a plan against a *different* tree (model
// misspecification studies).
func EvaluateStochasticPlanMC(par Params, plan *StochasticPlan, dem []float64, rng *rand.Rand, samples int) (mean, stderr float64, err error) {
	if plan == nil || plan.Tree == nil {
		return 0, 0, errors.New("core: nil plan")
	}
	if samples <= 1 {
		return 0, 0, errors.New("core: need at least 2 samples")
	}
	tree := plan.Tree
	if len(dem) != tree.Stages() {
		return 0, 0, errors.New("core: demand/stage mismatch")
	}
	children := make([][]int, tree.N())
	for v := 1; v < tree.N(); v++ {
		children[tree.Parent[v]] = append(children[tree.Parent[v]], v)
	}
	var sum, sumSq float64
	for s := 0; s < samples; s++ {
		cost := 0.0
		v := 0
		for {
			stage := tree.Stage[v]
			if plan.Chi[v] {
				cost += tree.Price[v]
			}
			cost += par.UnitGenCost() * plan.Alpha[v]
			cost += par.HoldingCost() * plan.Beta[v]
			cost += par.Pricing.TransferOutPerGB * dem[stage]
			if len(children[v]) == 0 {
				break
			}
			// Sample the next state by conditional probability.
			u := rng.Float64() * tree.Prob[v]
			acc := 0.0
			next := children[v][len(children[v])-1]
			for _, c := range children[v] {
				acc += tree.Prob[c]
				if u <= acc {
					next = c
					break
				}
			}
			v = next
		}
		sum += cost
		sumSq += cost * cost
	}
	n := float64(samples)
	mean = sum / n
	variance := (sumSq - sum*sum/n) / (n - 1)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / n), nil
}

// ValueOfStochasticSolution computes the classic VSS decomposition for a
// scenario tree: the cost of the expected-value policy (solve DRRP on the
// stage-expected prices, then evaluate that fixed rental pattern against
// the tree) minus the stochastic optimum. A positive VSS quantifies how
// much explicitly modelling the price distribution is worth — the paper's
// central argument for SRRP over DRRP.
func ValueOfStochasticSolution(par Params, tree *scenario.Tree, dem []float64) (vss, evCost, spCost float64, err error) {
	sp, err := SolveSRRP(par, tree, dem)
	if err != nil {
		return 0, 0, 0, err
	}
	// Expected-value problem: deterministic prices = stage expectations.
	S := tree.Stages()
	prices := make([]float64, S)
	for s := 0; s < S; s++ {
		prices[s] = tree.ExpectedPrice(s)
	}
	evPlan, err := SolveDRRP(par, prices, dem)
	if err != nil {
		return 0, 0, 0, err
	}
	// Evaluate the EV plan's stage decisions on the tree: the rental and
	// production pattern is fixed per stage (it cannot adapt), demands are
	// certain, so only the compute cost varies with the realised price.
	evCost = 0.0
	for v := 0; v < tree.N(); v++ {
		s := tree.Stage[v]
		pv := tree.Prob[v]
		if evPlan.Chi[s] {
			evCost += pv * tree.Price[v]
		}
		evCost += pv * (par.UnitGenCost()*evPlan.Alpha[s] +
			par.HoldingCost()*evPlan.Beta[s] +
			par.Pricing.TransferOutPerGB*dem[s])
	}
	return evCost - sp.ExpCost, evCost, sp.ExpCost, nil
}
