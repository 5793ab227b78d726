package lp

import (
	"math"
	"testing"
)

// TestNumericalRegressions pins small models on which the simplex used to
// report a wrong verdict. Every coefficient sits near 1542, so rounding in
// cancellations is large in absolute terms while the true violations are
// small.
//
//   - B and C: the primal ratio test admitted a pivot of 3.4e-10 in a
//     column whose largest entry is 4.9e4 (B). The inverse was wrecked and
//     the solver returned a point far off an equality row (B) or an
//     objective of −591757 (C). The pivot threshold is now relative to the
//     column.
//   - A and D: phase 1 ended with an artificial of 0.12 (A) or 1e-5 (D).
//     That passed against one model-wide scale, max|b| or a bound times a
//     coefficient, and an infeasible model was reported optimal. Each
//     artificial is now judged against the magnitudes of its own row.
func TestNumericalRegressions(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		p    *Problem
		want Status
		obj  float64
	}{
		{
			name: "A",
			p: &Problem{
				C:     []float64{1542},
				SA:    DenseRows([][]float64{{1574}, {1574.125}}),
				Rel:   []Rel{EQ, LE},
				B:     []float64{1542, 1542},
				Lower: []float64{-inf},
				Upper: []float64{1542},
			},
			want: StatusInfeasible,
		},
		{
			name: "B",
			p: &Problem{
				C: []float64{1542, 1542, -1498, 1542},
				SA: DenseRows([][]float64{
					{1542, 1606, -1497.75, 0},
					{1574, 1542, 1542, 38},
					{1574, 1542, 1542, 0},
					{1542, 0, 0, 0},
					{0, 0, 0, 1542},
				}),
				Rel: []Rel{EQ, LE, LE, LE, LE},
				B:   []float64{1542, 1542, 1542, 1542, 0},
			},
			want: StatusOptimal,
			obj:  1479.3145388643,
		},
		{
			name: "C",
			p: &Problem{
				C: []float64{1542, 1542, 1559.625, 1542},
				SA: DenseRows([][]float64{
					{1542, 1542, 1542.125, 1542},
					{1542, 1542, 1542, 1542},
					{1548.375, 1542, 1574, 1542},
					{1542, 0, 1542, 1542},
					{0, 1542, 1542, 1542},
				}),
				Rel:   []Rel{GE, LE, LE, LE, LE},
				B:     []float64{1542, 1542, 1542, 1542, 1542},
				Lower: []float64{-inf, -inf, -inf, -inf},
				Upper: []float64{1542, 1542, 0, 0},
			},
			want: StatusOptimal,
			obj:  1542,
		},
		{
			name: "D",
			p: &Problem{
				C:   []float64{1542},
				SA:  DenseRows([][]float64{{1542}, {1542.125}, {1542}, {0}, {-0.125}}),
				Rel: []Rel{GE, LE, LE, LE, LE},
				B:   []float64{1030, 1542, 1542, 1542, -0.125},
			},
			want: StatusInfeasible,
		},
	}
	for _, tc := range cases {
		for _, full := range []bool{false, true} {
			sol, err := SolveWithOptions(tc.p, Options{FullPricing: full})
			if err != nil {
				t.Fatalf("%s (full pricing %v): %v", tc.name, full, err)
			}
			if sol.Status != tc.want {
				t.Fatalf("%s (full pricing %v): status %v obj %v, want %v", tc.name, full, sol.Status, sol.Obj, tc.want)
			}
			switch sol.Status {
			case StatusOptimal:
				if math.Abs(sol.Obj-tc.obj) > 1e-7*(1+math.Abs(tc.obj)) {
					t.Fatalf("%s (full pricing %v): obj %.10f, want %.10f", tc.name, full, sol.Obj, tc.obj)
				}
				// Row activities near 1542 carry ~1e-5 of rounding.
				if !feasible(tc.p, sol.X, 1e-4) {
					t.Fatalf("%s (full pricing %v): reported point %v is infeasible", tc.name, full, sol.X)
				}
			case StatusInfeasible:
				certifyFarkasOK(t, tc.p, sol.FarkasRay)
			}
		}
	}
}
