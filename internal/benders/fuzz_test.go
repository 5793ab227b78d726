package benders

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/lotsize"
	"rentplan/internal/lp"
)

// fuzzTreeProblem decodes fuzz bytes into a tree of at most 300 vertices,
// 1 to 5 stages below the root, with 1 to 3 children per vertex. Each
// child's branch weight is m·10⁻ᵏ, with a mantissa m in [1, 2) and k in
// 0…5, and a vertex's probability splits over its children in proportion
// to their weights, so sibling probabilities differ by up to six decades.
// Setup, unit and holding costs and demands lie in [0, 1], about a quarter
// of the demands are zero, and an odd second byte adds an initial
// inventory in [0, 1].
func fuzzTreeProblem(data []byte) *lotsize.TreeProblem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	frac := func() float64 { return float64(next()) / 255 }
	const maxVertices = 300
	depth := 1 + int(next())%5
	inventory := 0.0
	if next()%2 == 1 {
		inventory = frac()
	}
	parent, prob, level := []int{-1}, []float64{1}, []int{0}
	for d := 0; d < depth; d++ {
		var below []int
		for _, v := range level {
			k := min(1+int(next())%3, maxVertices-len(parent))
			weights := make([]float64, k)
			sum := 0.0
			for i := range weights {
				b := next()
				weights[i] = (1 + float64(b>>3)/32) * math.Pow(10, -float64(b%6))
				sum += weights[i]
			}
			for _, w := range weights {
				parent = append(parent, v)
				prob = append(prob, prob[v]*w/sum)
				below = append(below, len(parent)-1)
			}
		}
		level = below
	}
	n := len(parent)
	tp := &lotsize.TreeProblem{
		Parent: parent, Prob: prob,
		Setup: make([]float64, n), Unit: make([]float64, n),
		Hold: make([]float64, n), Demand: make([]float64, n),
		InitialInventory: inventory,
	}
	for v := 0; v < n; v++ {
		tp.Setup[v], tp.Unit[v], tp.Hold[v] = frac(), frac(), frac()
		if b := next(); b%4 != 0 {
			tp.Demand[v] = float64(b) / 255
		}
	}
	return tp
}

// FuzzNestedMatchesExtensive checks the nested L-shaped solver against the
// extensive-form LP on decoded trees: every solve must converge, and its
// bound must match the extensive optimum to 1e-6 relative.
func FuzzNestedMatchesExtensive(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 128, 2, 0, 0, 0, 40, 200, 90, 7, 13, 250, 60, 3, 99})
	f.Add([]byte{3, 0, 2, 5, 11, 29, 2, 0, 4, 5, 1, 1, 0, 2, 3, 200, 100, 50, 25})
	f.Add([]byte{4, 3, 255, 2, 0, 5, 5, 2, 8, 13, 21, 2, 0, 5, 4, 2, 1, 2, 3, 2, 200, 180, 170})
	// Whole random trees. Sources 142, 345 and 386 decode to trees that
	// stall at the sweep cap when vertex LPs carry absolute path
	// probabilities instead of conditional ones.
	for _, src := range []int64{1, 142, 345, 386} {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(src)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tp := fuzzTreeProblem(data)
		res, err := SolveTreeLP(tp, NestedOptions{})
		if err != nil {
			t.Fatalf("%d vertices: %v", tp.N(), err)
		}
		if !res.Converged {
			t.Fatalf("%d vertices: no convergence after %d sweeps (bound %v, cost %v)",
				tp.N(), res.Iterations, res.Bound, res.Cost)
		}
		esol, err := lp.Solve(treeLPRelaxation(tp))
		if err != nil || esol.Status != lp.StatusOptimal {
			t.Fatalf("%d vertices: extensive: %v %v", tp.N(), esol, err)
		}
		if math.Abs(res.Bound-esol.Obj) > 1e-6*(1+math.Abs(esol.Obj)) {
			t.Fatalf("%d vertices: nested %v != extensive %v", tp.N(), res.Bound, esol.Obj)
		}
	})
}
