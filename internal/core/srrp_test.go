package core

import (
	"context"
	"sync"
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

// TestSharedTreeIsReadOnly guards the documented immutability contract of
// cached scenario trees: many goroutines solving SRRP against one shared
// tree must neither race (enforced by -race) nor perturb the tree, and every
// solve must return the bit-identical objective of the serial path.
func TestSharedTreeIsReadOnly(t *testing.T) {
	par := DefaultParams(market.M1Large)
	tr := srrpTree(t, 3, 0.060)
	dem := []float64{0.4, 0.5, 0.3, 0.6}

	serial, err := SolveSRRP(par, tr, dem)
	if err != nil {
		t.Fatal(err)
	}
	snapPrice := append([]float64(nil), tr.Price...)
	snapProb := append([]float64(nil), tr.Prob...)

	const workers = 8
	costs := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			pl, err := SolveSRRP(par, tr, dem)
			if err != nil {
				errs[w] = err
				return
			}
			costs[w] = pl.ExpCost
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if costs[w] != serial.ExpCost {
			t.Fatalf("worker %d: cost %v != serial %v", w, costs[w], serial.ExpCost)
		}
	}
	for i := range snapPrice {
		if tr.Price[i] != snapPrice[i] || tr.Prob[i] != snapProb[i] {
			t.Fatalf("shared tree mutated at vertex %d", i)
		}
	}
}
