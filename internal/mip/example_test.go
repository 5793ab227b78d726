package mip_test

import (
	"fmt"

	"rentplan/internal/lp"
	"rentplan/internal/mip"
)

// ExampleSolve solves a small knapsack: pick items maximising value under a
// weight budget (minimise the negated value).
func ExampleSolve() {
	prob := &mip.Problem{
		LP: &lp.Problem{
			C:     []float64{-10, -13, -7, -11},            // negated values
			SA:    lp.DenseRows([][]float64{{3, 4, 2, 3}}), // weights
			Rel:   []lp.Rel{lp.LE},
			B:     []float64{7},
			Upper: []float64{1, 1, 1, 1},
		},
		Integer: []bool{true, true, true, true},
	}
	sol, err := mip.Solve(prob)
	if err != nil {
		panic(err)
	}
	fmt.Printf("value %.0f, picks %v\n", -sol.Obj, sol.X)
	// Output: value 24, picks [0 1 0 1]
}
