package core

import (
	"context"
	"testing"

	"rentplan/internal/market"
)

// An uncapacitated SRRP solve allocates its tree problem, the DP's result
// and the plan; the plan takes the DP's α, β and χ as they are instead of
// copying them.
func TestSolveSRRPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values at random")
	}
	par := DefaultParams(market.C1Medium)
	tr := srrpTree(t, 4, 0.060)
	if tr.N() != 341 {
		t.Fatalf("tree has %d vertices, want 341", tr.N())
	}
	dem := []float64{0.4, 0.5, 0.3, 0.6, 0.2}
	ctx := context.Background()
	want, err := SolveSRRPCtx(ctx, par, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p, err := SolveSRRPCtx(ctx, par, tr, dem)
		if err != nil {
			t.Fatal(err)
		}
		if p.ExpCost != want.ExpCost {
			t.Fatalf("repeat solve costs %v, first solve %v", p.ExpCost, want.ExpCost)
		}
	})
	if allocs > 9 {
		t.Fatalf("SolveSRRPCtx made %v allocations per call on a %d-vertex tree, want <= 9", allocs, tr.N())
	}
}
