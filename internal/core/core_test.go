package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"rentplan/internal/demand"
	"rentplan/internal/market"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

func drrpFixture(class market.VMClass, T int, seed int64) (Params, []float64, []float64) {
	par := DefaultParams(class)
	lambda := par.Pricing.OnDemand[class]
	prices := constants(T, lambda)
	dem := demand.Series(demand.NewTruncNormal(0.4, 0.2, seed), T)
	return par, prices, dem
}

func TestSolveDRRPBeatsNoPlan(t *testing.T) {
	for _, class := range market.PlanningClasses() {
		par, prices, dem := drrpFixture(class, 24, 1)
		plan, err := SolveDRRP(par, prices, dem)
		if err != nil {
			t.Fatal(err)
		}
		np, err := NoPlanCost(par, prices, dem)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cost > np.Cost+1e-9 {
			t.Fatalf("%s: DRRP %v worse than no-plan %v", class, plan.Cost, np.Cost)
		}
		// Plan feasibility: inventory balance.
		inv := par.Epsilon
		for tt := range dem {
			inv = inv + plan.Alpha[tt] - dem[tt]
			if inv < -1e-9 {
				t.Fatalf("%s: demand violated at %d", class, tt)
			}
			if math.Abs(inv-plan.Beta[tt]) > 1e-9 {
				t.Fatalf("%s: Beta mismatch at %d", class, tt)
			}
			if plan.Alpha[tt] > 1e-9 && !plan.Chi[tt] {
				t.Fatalf("%s: generation without rental at %d", class, tt)
			}
		}
		// Breakdown must sum to Cost.
		if math.Abs(plan.Breakdown.Total()-plan.Cost) > 1e-9 {
			t.Fatalf("%s: breakdown mismatch", class)
		}
	}
}

func TestDRRPSavingGrowsWithClassPower(t *testing.T) {
	// Fig. 10: the relative saving over no-plan increases with the
	// instance's on-demand price, approaching ~50% for m1.xlarge.
	ratios := map[market.VMClass]float64{}
	for _, class := range market.PlanningClasses() {
		par, prices, dem := drrpFixture(class, 24, 2)
		plan, _ := SolveDRRP(par, prices, dem)
		np, _ := NoPlanCost(par, prices, dem)
		ratios[class] = plan.Cost / np.Cost
	}
	if !(ratios[market.C1Medium] > ratios[market.M1Large] &&
		ratios[market.M1Large] > ratios[market.M1XLarge]) {
		t.Fatalf("cost ratios not decreasing with class power: %v", ratios)
	}
	if r := ratios[market.M1XLarge]; r > 0.65 || r < 0.30 {
		t.Fatalf("m1.xlarge ratio %v; paper reports ≈0.5", r)
	}
	if r := ratios[market.C1Medium]; r > 0.98 || r < 0.6 {
		t.Fatalf("c1.medium ratio %v; paper reports ≈0.84", r)
	}
}

func TestSolveDRRPCapacitatedMatchesTightness(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	T := 6
	prices := constants(T, 0.2)
	dem := []float64{0.4, 0.5, 0.3, 0.6, 0.4, 0.2}
	// Uncapacitated optimum batches production; a tight per-slot capacity
	// forces it to spread out and costs at least as much.
	free, err := SolveDRRP(par, prices, dem)
	if err != nil {
		t.Fatal(err)
	}
	par.ConsumptionRate = 1
	par.Capacity = constants(T, 0.7)
	capped, err := SolveDRRP(par, prices, dem)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Cost < free.Cost-1e-9 {
		t.Fatalf("capacitated cost %v below uncapacitated %v", capped.Cost, free.Cost)
	}
	for tt := 0; tt < T; tt++ {
		if capped.Alpha[tt] > 0.7+1e-6 {
			t.Fatalf("capacity violated at %d: %v", tt, capped.Alpha[tt])
		}
	}
	// Infeasible capacity: total capacity below total demand.
	par.Capacity = constants(T, 0.3)
	if _, err := SolveDRRP(par, prices, dem); err == nil {
		t.Fatal("want infeasibility error")
	}
}

func TestDRRPvsMILPUncapacitated(t *testing.T) {
	// The DP path and the MILP path must agree on the same instance.
	par, prices, dem := drrpFixture(market.M1Large, 12, 3)
	dp, err := SolveDRRP(par, prices, dem)
	if err != nil {
		t.Fatal(err)
	}
	// Force the MILP path with a loose but TIME-VARYING capacity (constant
	// capacities take the exact Florian–Klein DP instead).
	par2 := par
	par2.ConsumptionRate = 1
	par2.Capacity = constants(12, 1e6)
	par2.Capacity[3] = 1e6 + 1
	milp, err := SolveDRRP(par2, prices, dem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.Cost-milp.Cost) > 1e-5 {
		t.Fatalf("DP %v != MILP %v", dp.Cost, milp.Cost)
	}
	// And the constant-capacity fast path agrees with both.
	par3 := par
	par3.ConsumptionRate = 1
	par3.Capacity = constants(12, 1e6)
	fk, err := SolveDRRP(par3, prices, dem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.Cost-fk.Cost) > 1e-5 {
		t.Fatalf("DP %v != Florian–Klein %v", dp.Cost, fk.Cost)
	}
}

func TestSolveDRRPErrors(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	if _, err := SolveDRRP(par, nil, nil); err == nil {
		t.Fatal("want empty horizon error")
	}
	if _, err := SolveDRRP(par, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length error")
	}
	bad := par
	bad.Phi = -1
	if _, err := SolveDRRP(bad, []float64{1}, []float64{1}); err == nil {
		t.Fatal("want params error")
	}
	bad2 := par
	bad2.Class = market.VMClass("nope")
	if _, err := SolveDRRP(bad2, []float64{1}, []float64{1}); err == nil {
		t.Fatal("want class error")
	}
}

func TestNoPlanUsesEpsilonFirst(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	par.Epsilon = 1.0
	prices := constants(3, 0.2)
	dem := []float64{0.4, 0.4, 0.4}
	np, err := NoPlanCost(par, prices, dem)
	if err != nil {
		t.Fatal(err)
	}
	// ε=1.0 covers slots 0,1 and half of 2.
	if np.Chi[0] || np.Chi[1] || !np.Chi[2] {
		t.Fatalf("chi = %v", np.Chi)
	}
	if math.Abs(np.Alpha[2]-0.2) > 1e-9 {
		t.Fatalf("alpha[2] = %v", np.Alpha[2])
	}
}

func baseDist() stats.Discrete {
	return stats.Discrete{
		Values: []float64{0.056, 0.058, 0.060, 0.062, 0.064},
		Probs:  []float64{0.1, 0.2, 0.4, 0.2, 0.1},
	}
}

func srrpTree(t *testing.T, stages int, bid float64) *scenario.Tree {
	t.Helper()
	bids := constants(stages, bid)
	tr, err := scenario.Build(baseDist(), bids, 0.2, scenario.BuildConfig{
		Stages:    stages,
		RootPrice: 0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSolveSRRPMatchesMILP(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	tr := srrpTree(t, 2, 0.060)
	dem := []float64{0.4, 0.5, 0.3}
	dp, err := SolveSRRP(par, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	par2 := par
	par2.ConsumptionRate = 1
	par2.Capacity = constants(3, 1e6) // loose: same optimum
	// SolveSRRP answers a loose capacity from the DP, so go to the MILP
	// path directly.
	milp, err := solveSRRPMILP(context.Background(), par2, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	if milp.Stats == nil {
		t.Fatal("MILP path ran no branch-and-bound")
	}
	if math.Abs(dp.ExpCost-milp.ExpCost) > 1e-5 {
		t.Fatalf("DP %v != MILP %v", dp.ExpCost, milp.ExpCost)
	}
	if math.Abs(dp.Breakdown.Total()-dp.ExpCost) > 1e-9 {
		t.Fatal("breakdown mismatch")
	}
	if dp.RootRent != dp.Chi[0] || dp.RootAlpha != dp.Alpha[0] {
		t.Fatal("root decision fields inconsistent")
	}
}

func TestSolveSRRPNonAnticipativity(t *testing.T) {
	// Decisions are per-vertex by construction; verify the balance holds on
	// every root-leaf path (each scenario is feasible).
	par := DefaultParams(market.M1Large)
	tr := srrpTree(t, 3, 0.060)
	dem := []float64{0.4, 0.3, 0.5, 0.2}
	plan, err := SolveSRRP(par, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tr.Leaves() {
		inv := par.Epsilon
		for _, v := range tr.Path(leaf) {
			inv = inv + plan.Alpha[v] - dem[tr.Stage[v]]
			if inv < -1e-9 {
				t.Fatalf("scenario through %d infeasible at %d", leaf, v)
			}
			if math.Abs(inv-plan.Beta[v]) > 1e-9 {
				t.Fatalf("beta mismatch at %d", v)
			}
		}
	}
}

func TestSolveSRRPErrors(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	if _, err := SolveSRRP(par, nil, nil); err == nil {
		t.Fatal("want nil tree error")
	}
	tr := srrpTree(t, 2, 0.06)
	if _, err := SolveSRRP(par, tr, []float64{1}); err == nil {
		t.Fatal("want stage mismatch error")
	}
	if _, err := SolveSRRP(par, tr, []float64{1, -1, 1}); err == nil {
		t.Fatal("want negative demand error")
	}
}

// TestSRRPRejectsNonFiniteDemand pins that a NaN or infinite demand is
// rejected by name before either solve path runs; it used to reach the tree
// DP's internal error or an lp column check.
func TestSRRPRejectsNonFiniteDemand(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	capPar := par
	capPar.ConsumptionRate = 1
	capPar.Capacity = constants(3, 1e6)
	tr := srrpTree(t, 2, 0.06)
	vertexDem := func(v int, d float64) []float64 {
		dem := constants(tr.N(), 0.4)
		dem[v] = d
		return dem
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		solve func() (*StochasticPlan, error)
		want  string
	}{
		{"stage NaN", func() (*StochasticPlan, error) { return SolveSRRP(par, tr, []float64{1, nan, 1}) }, "at stage 1"},
		{"stage +Inf", func() (*StochasticPlan, error) { return SolveSRRP(par, tr, []float64{1, 1, inf}) }, "at stage 2"},
		{"capacitated stage NaN", func() (*StochasticPlan, error) { return SolveSRRP(capPar, tr, []float64{nan, 1, 1}) }, "at stage 0"},
		{"capacitated stage +Inf", func() (*StochasticPlan, error) { return SolveSRRP(capPar, tr, []float64{1, inf, 1}) }, "at stage 1"},
		{"vertex NaN", func() (*StochasticPlan, error) { return SolveSRRPVertexDemands(par, tr, vertexDem(3, nan)) }, "at vertex 3"},
		{"vertex +Inf", func() (*StochasticPlan, error) { return SolveSRRPVertexDemands(par, tr, vertexDem(5, inf)) }, "at vertex 5"},
		{"capacitated vertex NaN", func() (*StochasticPlan, error) { return SolveSRRPVertexDemands(capPar, tr, vertexDem(2, nan)) }, "at vertex 2"},
	}
	for _, c := range cases {
		plan, err := c.solve()
		if err == nil || !strings.Contains(err.Error(), "core: demand") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: plan %v, error %v; want a core demand error naming %q", c.name, plan != nil, err, c.want)
		}
	}
}

func TestSRRPLowBidPlansAroundOutOfBid(t *testing.T) {
	// With a hopeless bid every future stage is priced at λ; the planner
	// should front-load production at the known cheap root.
	par := DefaultParams(market.C1Medium)
	tr := srrpTree(t, 3, 0.01) // bid below the whole base support
	dem := []float64{0.4, 0.4, 0.4, 0.4}
	plan, err := SolveSRRP(par, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.RootRent {
		t.Fatal("root rental expected")
	}
	if plan.RootAlpha < dem[0]+dem[1]-1e-9 {
		t.Fatalf("root alpha %v too small; expected front-loading", plan.RootAlpha)
	}
	// Compare to a generous bid: expected cost must be lower with the
	// generous bid (less out-of-bid risk).
	trHigh := srrpTree(t, 3, 0.064)
	planHigh, err := SolveSRRP(par, trHigh, dem)
	if err != nil {
		t.Fatal(err)
	}
	if planHigh.ExpCost > plan.ExpCost+1e-12 {
		t.Fatalf("high-bid plan %v costs more than low-bid plan %v", planHigh.ExpCost, plan.ExpCost)
	}
}

func TestCostBreakdownHelpers(t *testing.T) {
	b := CostBreakdown{Compute: 1, Holding: 2, TransferIn: 3, TransferOut: 4}
	if b.Total() != 10 || b.Transfer() != 7 {
		t.Fatalf("totals wrong: %+v", b)
	}
	var acc CostBreakdown
	acc.Add(b)
	acc.Add(b)
	if acc.Total() != 20 {
		t.Fatalf("Add wrong: %+v", acc)
	}
}
