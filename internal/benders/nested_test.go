package benders

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/lotsize"
	"rentplan/internal/lp"
)

// treeLPRelaxation builds the extensive-form LP relaxation (χ ∈ [0,1]) of a
// tree problem, with the same tight forcing bounds the nested solver uses.
func treeLPRelaxation(tp *lotsize.TreeProblem) *lp.Problem {
	n := tp.N()
	children := make([][]int, n)
	for v := 1; v < n; v++ {
		children[tp.Parent[v]] = append(children[tp.Parent[v]], v)
	}
	maxRemain := make([]float64, n)
	for v := n - 1; v >= 0; v-- {
		m := 0.0
		for _, c := range children[v] {
			if maxRemain[c] > m {
				m = maxRemain[c]
			}
		}
		maxRemain[v] = tp.Demand[v] + m
	}
	nv := 3 * n
	alpha := func(v int) int { return v }
	beta := func(v int) int { return n + v }
	chi := func(v int) int { return 2*n + v }
	prob := &lp.Problem{
		C:     make([]float64, nv),
		Lower: make([]float64, nv),
		Upper: make([]float64, nv),
	}
	for v := 0; v < n; v++ {
		prob.C[alpha(v)] = tp.Prob[v] * tp.Unit[v]
		prob.C[beta(v)] = tp.Prob[v] * tp.Hold[v]
		prob.C[chi(v)] = tp.Prob[v] * tp.Setup[v]
		prob.Upper[alpha(v)] = math.Inf(1)
		prob.Upper[beta(v)] = math.Inf(1)
		prob.Upper[chi(v)] = 1
	}
	for v := 0; v < n; v++ {
		row := make([]float64, nv)
		row[alpha(v)] = 1
		row[beta(v)] = -1
		rhs := tp.Demand[v]
		if v == 0 {
			rhs -= tp.InitialInventory
		} else {
			row[beta(tp.Parent[v])] = 1
		}
		prob.AddRow(row, lp.EQ, rhs)
		row2 := make([]float64, nv)
		row2[alpha(v)] = 1
		row2[chi(v)] = -maxRemain[v]
		prob.AddRow(row2, lp.LE, 0)
		row3 := make([]float64, nv)
		row3[alpha(v)] = 1
		row3[beta(v)] = -1
		row3[chi(v)] = -tp.Demand[v]
		prob.AddRow(row3, lp.LE, 0)
	}
	return prob
}

func randomTreeProblem(rng *rand.Rand, shape []int, eps float64) *lotsize.TreeProblem {
	parent := []int{-1}
	prob := []float64{1}
	level := []int{0}
	for _, b := range shape {
		var next []int
		for _, v := range level {
			for k := 0; k < b; k++ {
				parent = append(parent, v)
				prob = append(prob, prob[v]/float64(b))
				next = append(next, len(parent)-1)
			}
		}
		level = next
	}
	n := len(parent)
	tp := &lotsize.TreeProblem{
		Parent: parent, Prob: prob,
		Setup:  make([]float64, n),
		Unit:   make([]float64, n),
		Hold:   make([]float64, n),
		Demand: make([]float64, n),

		InitialInventory: eps,
	}
	for v := 0; v < n; v++ {
		tp.Setup[v] = 0.05 + rng.Float64()*0.4
		tp.Unit[v] = rng.Float64() * 0.1
		tp.Hold[v] = 0.05 + rng.Float64()*0.3
		tp.Demand[v] = rng.Float64()
	}
	return tp
}

func TestNestedLShapedMatchesExtensiveLP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// The one-stage shapes are two-stage recourse problems, the case of the
	// classic (non-nested) L-shaped method.
	shapes := [][]int{{2}, {3, 2}, {2, 2, 2}, {4, 2}, {2, 3, 2}, {3}, {4}}
	for trial := 0; trial < 3*len(shapes); trial++ {
		shape := shapes[trial%len(shapes)]
		eps := 0.0
		if trial%3 == 1 {
			eps = rng.Float64()
		}
		tp := randomTreeProblem(rng, shape, eps)
		res, err := SolveTreeLP(tp, NestedOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: no convergence after %d iterations (gap %v)",
				trial, res.Iterations, res.Cost-res.Bound)
		}
		ext := treeLPRelaxation(tp)
		esol, err := lp.Solve(ext)
		if err != nil || esol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: extensive: %v %v", trial, esol, err)
		}
		if math.Abs(res.Bound-esol.Obj) > 1e-5*(1+math.Abs(esol.Obj)) {
			t.Fatalf("trial %d (shape %v): nested %v != extensive %v", trial, shape, res.Bound, esol.Obj)
		}
	}
}

// TestNestedSkewedDeepTreeMatchesExtensiveLP solves ternary trees four to
// six stages deep whose branches split their parent's probability
// unevenly, so the least likely vertices are reached with probability down
// to 1e-24. Each tree must converge to the extensive LP's optimum.
func TestNestedSkewedDeepTreeMatchesExtensiveLP(t *testing.T) {
	splits := [][3]float64{{0.98, 0.01, 0.01}, {0.999, 0.0009, 0.0001}, {0.9, 0.09, 0.01}}
	trials := 12
	if raceEnabled || testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < trials; trial++ {
		depth := 4 + trial%3
		split := splits[(trial/3)%3]
		tp := randomTreeProblem(rng, []int{3, 3, 3, 3, 3, 3}[:depth], 0.2*float64(trial%2))
		// Level-order numbering makes (v−1) mod 3 vertex v's child index.
		for v := 1; v < tp.N(); v++ {
			tp.Prob[v] = tp.Prob[tp.Parent[v]] * split[(v-1)%3]
		}
		res, err := SolveTreeLP(tp, NestedOptions{})
		if err != nil {
			t.Fatalf("trial %d (depth %d, split %v): %v", trial, depth, split, err)
		}
		if !res.Converged {
			t.Fatalf("trial %d (depth %d, split %v): no convergence after %d sweeps (bound %v, cost %v)",
				trial, depth, split, res.Iterations, res.Bound, res.Cost)
		}
		esol, err := lp.Solve(treeLPRelaxation(tp))
		if err != nil || esol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: extensive: %v %v", trial, esol, err)
		}
		if math.Abs(res.Bound-esol.Obj) > 1e-5*(1+math.Abs(esol.Obj)) {
			t.Fatalf("trial %d (depth %d, split %v): nested %v != extensive %v",
				trial, depth, split, res.Bound, esol.Obj)
		}
	}
}

func TestNestedLShapedBoundsIntegerOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		tp := randomTreeProblem(rng, []int{3, 2}, 0)
		res, err := SolveTreeLP(tp, NestedOptions{})
		if err != nil || !res.Converged {
			t.Fatalf("trial %d: %v %+v", trial, err, res)
		}
		exact, err := lotsize.SolveTree(tp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound > exact.Cost+1e-6 {
			t.Fatalf("trial %d: LP bound %v exceeds integer optimum %v", trial, res.Bound, exact.Cost)
		}
	}
}

func TestNestedLShapedSingleVertex(t *testing.T) {
	tp := &lotsize.TreeProblem{
		Parent: []int{-1},
		Prob:   []float64{1},
		Setup:  []float64{2},
		Unit:   []float64{1},
		Hold:   []float64{0.5},
		Demand: []float64{3},
	}
	res, err := SolveTreeLP(tp, NestedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With the tight forcing bound B = D = 3 the relaxation is integral:
	// χ = 1, cost 3·1 + 2 = 5.
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if math.Abs(res.Bound-5) > 1e-6 {
		t.Fatalf("bound %v, want 5", res.Bound)
	}
	if math.Abs(res.RootAlpha-3) > 1e-6 {
		t.Fatalf("root alpha %v", res.RootAlpha)
	}
}

func TestNestedLShapedLargeEpsilon(t *testing.T) {
	// Initial inventory covering everything: zero cost apart from holding.
	tp := &lotsize.TreeProblem{
		Parent:           []int{-1, 0, 0},
		Prob:             []float64{1, 0.5, 0.5},
		Setup:            []float64{1, 1, 1},
		Unit:             []float64{1, 1, 1},
		Hold:             []float64{0.1, 0.1, 0.1},
		Demand:           []float64{1, 1, 1},
		InitialInventory: 5,
	}
	res, err := SolveTreeLP(tp, NestedOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("%v %+v", err, res)
	}
	// β root = 4 (hold 0.4), each child 3 (hold 0.5·0.1·3 ×2 = 0.3).
	if math.Abs(res.Bound-0.7) > 1e-6 {
		t.Fatalf("bound %v, want 0.7", res.Bound)
	}
	if res.RootAlpha > 1e-9 || res.RootChi > 1e-9 {
		t.Fatalf("no production expected: %+v", res)
	}
}

func TestNestedValidation(t *testing.T) {
	if _, err := SolveTreeLP(nil, NestedOptions{}); err == nil {
		t.Fatal("want nil error")
	}
	if _, err := SolveTreeLP(&lotsize.TreeProblem{}, NestedOptions{}); err == nil {
		t.Fatal("want empty error")
	}
	bad := &lotsize.TreeProblem{
		Parent: []int{0},
		Prob:   []float64{1},
		Setup:  []float64{1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1},
	}
	if _, err := SolveTreeLP(bad, NestedOptions{}); err == nil {
		t.Fatal("want root error")
	}
}
