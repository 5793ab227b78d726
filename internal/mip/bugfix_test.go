package mip

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/lp"
)

// Regression: an unbounded root relaxation used to fall through to the
// infeasible default because processNode returned silently on
// lp.StatusUnbounded. A mixed instance with a free improving direction must
// report StatusUnbounded.
func TestUnboundedRootRegression(t *testing.T) {
	// min -x0 - x1 with x0 integer unbounded above, x1 continuous in [0,1],
	// one non-binding row: the relaxation recedes along x0.
	p := &Problem{
		LP: &lp.Problem{
			C:     []float64{-1, -1},
			SA:    lp.DenseRows([][]float64{{0, 1}}),
			Rel:   []lp.Rel{lp.LE},
			B:     []float64{1},
			Upper: []float64{math.Inf(1), 1},
		},
		Integer: []bool{true, false},
	}
	for _, w := range []int{1, 4} {
		sol, err := SolveWithOptions(p, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusUnbounded {
			t.Fatalf("workers=%d: status %v, want unbounded", w, sol.Status)
		}
	}
}

// Regression: Solution.Bound used to be stale (-Inf or the last popped
// bound) when a node limit fired, because the tightening update was dead
// code. At a forced MaxNodes stop the bound must be the true minimum over
// the open frontier: finite, no better than the LP relaxation, and
// consistent with the reported Gap.
func TestBoundAtMaxNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 30
	p := &Problem{
		LP: &lp.Problem{
			C:     make([]float64, n),
			SA:    make([]lp.SparseRow, 1),
			Rel:   []lp.Rel{lp.LE},
			B:     []float64{0},
			Upper: make([]float64, n),
		},
		Integer: intSlice(n, true),
	}
	row := make([]float64, n)
	s := 0.0
	for j := 0; j < n; j++ {
		p.LP.C[j] = -(1 + rng.Float64())
		p.LP.Upper[j] = 1
		row[j] = 1 + rng.Float64()
		s += row[j]
	}
	p.LP.SA[0] = denseRow(row)
	p.LP.B[0] = s / 2

	rel, err := lp.Solve(p.LP)
	if err != nil || rel.Status != lp.StatusOptimal {
		t.Fatalf("root relaxation: %v %v", rel, err)
	}
	sol, err := SolveWithOptions(p, Options{MaxNodes: 5, Workers: 1, DisableHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == StatusOptimal || sol.Status == StatusInfeasible {
		t.Fatalf("limit run reported %v", sol.Status)
	}
	if math.IsInf(sol.Bound, 0) || math.IsNaN(sol.Bound) {
		t.Fatalf("stale bound %v at node limit", sol.Bound)
	}
	// The bound can never be better (lower) than the root relaxation.
	if sol.Bound < rel.Obj-1e-7 {
		t.Fatalf("bound %v below root relaxation %v", sol.Bound, rel.Obj)
	}
	if sol.Status == StatusFeasible {
		if sol.Bound > sol.Obj+1e-9 {
			t.Fatalf("bound %v above incumbent %v", sol.Bound, sol.Obj)
		}
		want := math.Abs(sol.Obj-sol.Bound) / math.Max(1, math.Abs(sol.Obj))
		if math.Abs(sol.Gap-want) > 1e-12 {
			t.Fatalf("gap %v, want %v", sol.Gap, want)
		}
	}
}

// Regression: offerIncumbent used to keep the objective of the unsnapped LP
// point, so Solution.Obj could disagree with Solution.X. The invariant
// Obj = cᵀ·X must hold exactly on every returned solution.
func TestObjectiveMatchesX(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		m := 1 + rng.Intn(3)
		p := &Problem{
			LP: &lp.Problem{
				C:     make([]float64, n),
				SA:    make([]lp.SparseRow, m),
				Rel:   make([]lp.Rel, m),
				B:     make([]float64, m),
				Upper: make([]float64, n),
			},
			Integer: intSlice(n, true),
		}
		for j := 0; j < n; j++ {
			p.LP.C[j] = rng.NormFloat64() * 5
			p.LP.Upper[j] = float64(1 + rng.Intn(3))
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			s := 0.0
			for j := range row {
				row[j] = rng.Float64() * 2
				s += row[j]
			}
			p.LP.SA[i], p.LP.Rel[i], p.LP.B[i] = denseRow(row), lp.LE, s*(0.3+0.5*rng.Float64())
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.X == nil {
			continue
		}
		obj := 0.0
		for j, c := range p.LP.C {
			obj += c * sol.X[j]
		}
		if math.Abs(obj-sol.Obj) > 1e-9 {
			t.Fatalf("trial %d: Obj %v but cᵀX %v (x=%v)", trial, sol.Obj, obj, sol.X)
		}
		for j, isInt := range p.Integer {
			if isInt && sol.X[j] != math.Round(sol.X[j]) {
				t.Fatalf("trial %d: X[%d]=%v not exactly integer", trial, j, sol.X[j])
			}
		}
	}
}

// Regression: the branch point used to mix fl = floor(x+tol) with
// fpart = x − floor(x), so a value just under an integer produced children
// x ≤ 3 / x ≥ 4 with a near-1 fractional part. fl and fpart must come from
// the same floor.
func TestBranchPoint(t *testing.T) {
	const tol = 1e-6
	cases := []struct {
		x         float64
		wantFl    float64
		wantFpart float64
	}{
		{2.5, 2, 0.5},
		{2.9999995, 3, 0},      // within tol below 3: snaps to 3, fpart clamped to 0
		{3.0000002, 3, 2.0e-7}, // just above 3
		{-1.5, -2, 0.5},        // negative values round toward -Inf
		{-1.0000005, -1, 0},    // within tol below -1: snaps up, fpart clamped to 0
		{0.25, 0, 0.25},
	}
	for _, c := range cases {
		fl, fpart := branchPoint(c.x, tol)
		if fl != c.wantFl {
			t.Errorf("branchPoint(%v): fl=%v, want %v", c.x, fl, c.wantFl)
		}
		if math.Abs(fpart-c.wantFpart) > 1e-9 {
			t.Errorf("branchPoint(%v): fpart=%v, want %v", c.x, fpart, c.wantFpart)
		}
		if fpart < 0 || fpart > 1 {
			t.Errorf("branchPoint(%v): fpart=%v outside [0,1]", c.x, fpart)
		}
		// Children x ≤ fl and x ≥ fl+1 must exclude the branch value only
		// when it is genuinely fractional.
		if frac := c.x - math.Floor(c.x); frac > tol && frac < 1-tol {
			if c.x <= fl || c.x >= fl+1 {
				t.Errorf("branchPoint(%v): value outside (fl, fl+1)=(%v, %v)", c.x, fl, fl+1)
			}
		}
	}
}
