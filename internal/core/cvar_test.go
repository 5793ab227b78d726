package core

import (
	"math"
	"testing"

	"rentplan/internal/market"
)

func TestCVaRLambdaZeroMatchesSRRP(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	tree := srrpTree(t, 2, 0.060)
	dem := []float64{0.4, 0.5, 0.3}
	plain, err := SolveSRRP(par, tree, dem)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := SolveSRRPCVaR(par, tree, dem, 0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cv.ExpCost-plain.ExpCost) > 1e-5 {
		t.Fatalf("λ=0 CVaR plan %v != SRRP %v", cv.ExpCost, plain.ExpCost)
	}
	// Scenario costs average to the expected cost.
	mean := 0.0
	for l, leaf := range tree.Leaves() {
		mean += tree.Prob[leaf] * cv.ScenarioCosts[l]
	}
	if math.Abs(mean-cv.ExpCost) > 1e-6 {
		t.Fatalf("scenario-cost mean %v != ExpCost %v", mean, cv.ExpCost)
	}
}

func TestCVaRAlphaZeroIsExpectation(t *testing.T) {
	// CVaR_0 equals the expectation, so any λ gives the same optimum value.
	par := DefaultParams(market.C1Medium)
	tree := srrpTree(t, 2, 0.058)
	dem := []float64{0.4, 0.4, 0.4}
	base, err := SolveSRRPCVaR(par, tree, dem, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SolveSRRPCVaR(par, tree, dem, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.ExpCost-full.ExpCost) > 1e-5 {
		t.Fatalf("α=0: λ=0 cost %v != λ=1 cost %v", base.ExpCost, full.ExpCost)
	}
	if math.Abs(full.CVaR-full.ExpCost) > 1e-5 {
		t.Fatalf("CVaR_0 %v != expectation %v", full.CVaR, full.ExpCost)
	}
}

func TestCVaRRiskAversionTradesTailForMean(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	// Low bid → fat out-of-bid tail: risk aversion has something to shave.
	tree := srrpTree(t, 3, 0.058)
	dem := []float64{0.4, 0.4, 0.4, 0.4}
	neutral, err := SolveSRRPCVaR(par, tree, dem, 0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	averse, err := SolveSRRPCVaR(par, tree, dem, 0.95, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// The risk-averse plan cannot have better expected cost...
	if averse.ExpCost < neutral.ExpCost-1e-6 {
		t.Fatalf("risk-averse expected cost %v beats neutral %v", averse.ExpCost, neutral.ExpCost)
	}
	// ...and cannot have a worse tail than the neutral plan's tail.
	if averse.CVaR > neutral.CVaR+1e-6 {
		t.Fatalf("risk-averse CVaR %v worse than neutral %v", averse.CVaR, neutral.CVaR)
	}
	// Objective consistency: CVaR ≥ expectation always.
	for _, p := range []*CVaRPlan{neutral, averse} {
		if p.CVaR < p.ExpCost-1e-6 {
			t.Fatalf("CVaR %v below expectation %v", p.CVaR, p.ExpCost)
		}
		worst := math.Inf(-1)
		for _, c := range p.ScenarioCosts {
			worst = math.Max(worst, c)
		}
		if worst < p.CVaR-1e-6 {
			t.Fatalf("worst scenario %v below CVaR %v", worst, p.CVaR)
		}
	}
}

func TestCVaRValidation(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	tree := srrpTree(t, 2, 0.06)
	dem := []float64{0.4, 0.4, 0.4}
	if _, err := SolveSRRPCVaR(par, nil, dem, 0.5, 0.8); err == nil {
		t.Fatal("want nil tree error")
	}
	if _, err := SolveSRRPCVaR(par, tree, dem[:2], 0.5, 0.8); err == nil {
		t.Fatal("want demand error")
	}
	if _, err := SolveSRRPCVaR(par, tree, dem, -0.1, 0.8); err == nil {
		t.Fatal("want lambda error")
	}
	if _, err := SolveSRRPCVaR(par, tree, dem, 0.5, 1.0); err == nil {
		t.Fatal("want alpha error")
	}
	capPar := par
	capPar.ConsumptionRate = 1
	capPar.Capacity = []float64{1, 1, 1}
	if _, err := SolveSRRPCVaR(capPar, tree, dem, 0.5, 0.8); err == nil {
		t.Fatal("want capacitated error")
	}
}
