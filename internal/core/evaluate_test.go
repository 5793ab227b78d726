package core

import (
	"math"
	"testing"

	"rentplan/internal/market"
	"rentplan/internal/stats"
)

func TestEvaluateStochasticPlanMCMatchesExpCost(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	tr := srrpTree(t, 4, 0.060)
	dem := []float64{0.4, 0.5, 0.3, 0.6, 0.2}
	plan, err := SolveSRRP(par, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	mean, se, err := EvaluateStochasticPlanMC(par, plan, dem, rng, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if se <= 0 {
		t.Fatalf("stderr %v", se)
	}
	if math.Abs(mean-plan.ExpCost) > 4*se+1e-6 {
		t.Fatalf("MC mean %v ± %v far from ExpCost %v", mean, se, plan.ExpCost)
	}
}

func TestEvaluateStochasticPlanMCErrors(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	rng := stats.NewRNG(1)
	if _, _, err := EvaluateStochasticPlanMC(par, nil, nil, rng, 10); err == nil {
		t.Fatal("want nil plan error")
	}
	tr := srrpTree(t, 2, 0.06)
	plan, err := SolveSRRP(par, tr, []float64{0.4, 0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EvaluateStochasticPlanMC(par, plan, []float64{1}, rng, 10); err == nil {
		t.Fatal("want demand mismatch error")
	}
	if _, _, err := EvaluateStochasticPlanMC(par, plan, []float64{0.4, 0.4, 0.4}, rng, 1); err == nil {
		t.Fatal("want sample count error")
	}
}

func TestValueOfStochasticSolutionNonNegative(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	for _, bid := range []float64{0.056, 0.058, 0.060, 0.064} {
		tr := srrpTree(t, 4, bid)
		dem := []float64{0.4, 0.4, 0.4, 0.4, 0.4}
		vss, evCost, spCost, err := ValueOfStochasticSolution(par, tr, dem)
		if err != nil {
			t.Fatal(err)
		}
		// The EV policy is one feasible non-anticipative policy, so its
		// cost can never undercut the stochastic optimum.
		if vss < -1e-9 {
			t.Fatalf("bid %v: negative VSS %v (ev %v, sp %v)", bid, vss, evCost, spCost)
		}
		if spCost <= 0 || evCost <= 0 {
			t.Fatalf("bid %v: degenerate costs ev=%v sp=%v", bid, evCost, spCost)
		}
	}
}

func TestVSSGrowsWithOutOfBidRisk(t *testing.T) {
	// Deep uncertainty (low bid → big gap between kept prices and λ) makes
	// the stochastic model strictly more valuable than shallow uncertainty.
	par := DefaultParams(market.C1Medium)
	dem := []float64{0.4, 0.4, 0.4, 0.4, 0.4}
	risky := srrpTree(t, 4, 0.058) // large OOB probability
	safe := srrpTree(t, 4, 0.064)  // no OOB states
	vssRisky, _, _, err := ValueOfStochasticSolution(par, risky, dem)
	if err != nil {
		t.Fatal(err)
	}
	vssSafe, _, _, err := ValueOfStochasticSolution(par, safe, dem)
	if err != nil {
		t.Fatal(err)
	}
	if vssRisky < vssSafe-1e-9 {
		t.Fatalf("VSS under risk (%v) below VSS without risk (%v)", vssRisky, vssSafe)
	}
}
