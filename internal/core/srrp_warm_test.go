package core

import (
	"testing"

	"rentplan/internal/market"
)

// TestSRRPRootBasisReuse covers the telemetry/warm-start plumbing the serve
// layer builds on: a capacitated SRRP solve publishes its MILP stats and
// root basis, and a second tenant solving over the same shared tree can feed
// that basis back through Params.Solver.RootBasis for a warm root with the
// bit-identical expected cost.
func TestSRRPRootBasisReuse(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	par.ConsumptionRate = 1
	// The uncapacitated optimum produces 0.8 at a stage-1 vertex (stage 1's
	// demand is 0.5), so capping stage 1 at 0.65 binds and keeps the solve
	// on the MILP path; 0.8 everywhere would fit the DP's plan.
	par.Capacity = []float64{0.8, 0.65, 0.8, 0.8}
	par.Solver.Workers = 1
	tr := srrpTree(t, 3, 0.060)
	dem := []float64{0.4, 0.5, 0.3, 0.6}

	first, err := SolveSRRP(par, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats == nil || first.Stats.Nodes == 0 {
		t.Fatalf("MILP path published no stats: %+v", first.Stats)
	}
	if first.RootBasis == nil {
		t.Fatal("MILP path published no root basis")
	}

	par2 := par
	par2.Solver.RootBasis = first.RootBasis
	second, err := SolveSRRP(par2, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	if second.ExpCost != first.ExpCost {
		t.Fatalf("warm-root ExpCost %.12f != cold %.12f", second.ExpCost, first.ExpCost)
	}
	if second.Stats.ColdNodes != 0 {
		t.Fatalf("warm-root solve dispatched %d cold nodes", second.Stats.ColdNodes)
	}

	// The DP path carries no solver telemetry.
	dp, err := SolveSRRP(DefaultParams(market.C1Medium), tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Stats != nil || dp.RootBasis != nil {
		t.Fatal("DP path unexpectedly carries MILP telemetry")
	}
}
