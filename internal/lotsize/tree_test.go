package lotsize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/lp"
	"rentplan/internal/mip"
)

// treeMILP builds the SRRP deterministic-equivalent MILP (Eq. 13–19,
// without the bottleneck constraint) for a tree problem. Variables:
// [α_v..., β_v..., χ_v...].
func treeMILP(p *TreeProblem) *mip.Problem {
	n := p.N()
	nv := 3 * n
	alpha := func(v int) int { return v }
	beta := func(v int) int { return n + v }
	chi := func(v int) int { return 2*n + v }
	bigB := p.InitialInventory
	for _, d := range p.Demand {
		bigB += d
	}
	bigB++
	lpp := &lp.Problem{
		C:     make([]float64, nv),
		Lower: make([]float64, nv),
		Upper: make([]float64, nv),
	}
	for v := 0; v < n; v++ {
		lpp.C[alpha(v)] = p.Prob[v] * p.Unit[v]
		lpp.C[beta(v)] = p.Prob[v] * p.Hold[v]
		lpp.C[chi(v)] = p.Prob[v] * p.Setup[v]
		lpp.Upper[alpha(v)] = math.Inf(1)
		lpp.Upper[beta(v)] = math.Inf(1)
		lpp.Upper[chi(v)] = 1
	}
	for v := 0; v < n; v++ {
		// β_{π(v)} + α_v − β_v = D_v (root uses ε).
		row := make([]float64, nv)
		row[alpha(v)] = 1
		row[beta(v)] = -1
		rhs := p.Demand[v]
		if v == 0 {
			rhs -= p.InitialInventory
		} else {
			row[beta(p.Parent[v])] = 1
		}
		lpp.AddRow(row, lp.EQ, rhs)
		// α_v ≤ B·χ_v.
		row2 := make([]float64, nv)
		row2[alpha(v)] = 1
		row2[chi(v)] = -bigB
		lpp.AddRow(row2, lp.LE, 0)
	}
	ints := make([]bool, nv)
	for v := 0; v < n; v++ {
		ints[chi(v)] = true
	}
	return &mip.Problem{LP: lpp, Integer: ints}
}

func solveTreeMILP(t *testing.T, p *TreeProblem) float64 {
	t.Helper()
	sol, err := mip.SolveWithOptions(treeMILP(p), mip.Options{MaxNodes: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != mip.StatusOptimal {
		t.Fatalf("MILP status %v", sol.Status)
	}
	return sol.Obj
}

// balancedTree builds a perfectly balanced tree with the given branching per
// stage; stage-t vertices share probability 1/width(t).
func balancedTree(branching []int) ([]int, []float64) {
	parent := []int{-1}
	prob := []float64{1}
	level := []int{0}
	for _, b := range branching {
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
	return parent, prob
}

func fillTree(rng *rand.Rand, parent []int, prob []float64, eps float64) *TreeProblem {
	n := len(parent)
	p := &TreeProblem{
		Parent:           parent,
		Prob:             prob,
		Setup:            make([]float64, n),
		Unit:             make([]float64, n),
		Hold:             make([]float64, n),
		Demand:           make([]float64, n),
		InitialInventory: eps,
	}
	for v := 0; v < n; v++ {
		p.Setup[v] = rng.Float64() * 4
		p.Unit[v] = rng.Float64() * 2
		p.Hold[v] = rng.Float64()
		if rng.Float64() < 0.2 {
			p.Demand[v] = 0
		} else {
			p.Demand[v] = rng.Float64() * 3
		}
	}
	return p
}

func TestTreeSingleVertex(t *testing.T) {
	p := &TreeProblem{
		Parent: []int{-1},
		Prob:   []float64{1},
		Setup:  []float64{2},
		Unit:   []float64{1},
		Hold:   []float64{0.5},
		Demand: []float64{3},
	}
	sol, err := SolveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Cost-5) > 1e-9 { // setup 2 + 3·1
		t.Fatalf("cost %v, want 5", sol.Cost)
	}
	if !sol.Setup[0] || sol.Produce[0] != 3 || sol.Inventory[0] != 0 {
		t.Fatalf("plan %v %v %v", sol.Setup, sol.Produce, sol.Inventory)
	}
}

func TestTreePathEqualsChain(t *testing.T) {
	// A path-shaped tree must reproduce the Wagner–Whitin solution.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		T := 2 + rng.Intn(8)
		eps := 0.0
		if trial%2 == 0 {
			eps = rng.Float64() * 2
		}
		cp := randomChain(rng, T, eps)
		parent := make([]int, T)
		prob := make([]float64, T)
		for i := 0; i < T; i++ {
			parent[i] = i - 1
			prob[i] = 1
		}
		tp := &TreeProblem{
			Parent: parent, Prob: prob,
			Setup: cp.Setup, Unit: cp.Unit, Hold: cp.Hold, Demand: cp.Demand,
			InitialInventory: eps,
		}
		cs, err := SolveChain(cp)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := SolveTree(tp)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cs.Cost-ts.Cost) > 1e-8 {
			t.Fatalf("trial %d: chain %v != tree %v", trial, cs.Cost, ts.Cost)
		}
	}
}

func TestTreeRandomVsMILP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][]int{{2, 2}, {3, 2}, {2, 2, 2}, {2, 3}, {4}, {2, 1, 2}}
	for trial := 0; trial < 24; trial++ {
		shape := shapes[trial%len(shapes)]
		parent, prob := balancedTree(shape)
		eps := 0.0
		if trial%3 == 0 {
			eps = rng.Float64() * 2
		}
		p := fillTree(rng, parent, prob, eps)
		sol, err := SolveTree(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := solveTreeMILP(t, p)
		if math.Abs(sol.Cost-want) > 1e-5 {
			t.Fatalf("trial %d (shape %v): DP %v != MILP %v", trial, shape, sol.Cost, want)
		}
	}
}

func TestTreeSolutionFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parent, prob := balancedTree([]int{3, 2, 2})
	p := fillTree(rng, parent, prob, 1.5)
	sol, err := SolveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	n := p.N()
	recomputed := 0.0
	for v := 0; v < n; v++ {
		prev := p.InitialInventory
		if v > 0 {
			prev = sol.Inventory[p.Parent[v]]
		}
		// Balance and nonnegativity.
		if math.Abs(prev+sol.Produce[v]-p.Demand[v]-sol.Inventory[v]) > 1e-9 {
			t.Fatalf("balance broken at %d", v)
		}
		if sol.Inventory[v] < -1e-9 || sol.Produce[v] < -1e-12 {
			t.Fatalf("negative plan values at %d", v)
		}
		if sol.Produce[v] > 1e-9 && !sol.Setup[v] {
			t.Fatalf("production without setup at %d", v)
		}
		if sol.Setup[v] {
			recomputed += p.Prob[v] * p.Setup[v]
		}
		recomputed += p.Prob[v] * (p.Unit[v]*sol.Produce[v] + p.Hold[v]*sol.Inventory[v])
	}
	if math.Abs(recomputed-sol.Cost) > 1e-6 {
		t.Fatalf("plan cost %v != reported %v", recomputed, sol.Cost)
	}
}

func TestTreeExpensiveRootSetupSharesProduction(t *testing.T) {
	// Cheap root setup, expensive child setups: produce everything at the
	// root for both branches.
	p := &TreeProblem{
		Parent: []int{-1, 0, 0},
		Prob:   []float64{1, 0.5, 0.5},
		Setup:  []float64{1, 100, 100},
		Unit:   []float64{1, 1, 1},
		Hold:   []float64{0.01, 0.01, 0.01},
		Demand: []float64{1, 2, 4},
	}
	sol, err := SolveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Setup[0] || sol.Setup[1] || sol.Setup[2] {
		t.Fatalf("setups %v, want root only", sol.Setup)
	}
	// Root must produce enough for the WORST branch demand: the inventory
	// state is shared, so α_0 = 1 + max(2,4) = 5.
	if math.Abs(sol.Produce[0]-5) > 1e-9 {
		t.Fatalf("root production %v, want 5", sol.Produce[0])
	}
	want := solveTreeMILP(t, p)
	if math.Abs(sol.Cost-want) > 1e-6 {
		t.Fatalf("DP %v != MILP %v", sol.Cost, want)
	}
}

func TestTreeValidation(t *testing.T) {
	bad := []*TreeProblem{
		{},
		{Parent: []int{0}, Prob: []float64{1}, Setup: []float64{1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1}},
		{Parent: []int{-1, 2, 1}, Prob: []float64{1, 1, 1}, Setup: make([]float64, 3), Unit: make([]float64, 3), Hold: make([]float64, 3), Demand: make([]float64, 3)},
		{Parent: []int{-1}, Prob: []float64{0}, Setup: []float64{1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1}},
		{Parent: []int{-1}, Prob: []float64{1}, Setup: []float64{-1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1}},
		{Parent: []int{-1}, Prob: []float64{1}, Setup: []float64{1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1}, InitialInventory: -2},
		{Parent: []int{-1, 0}, Prob: []float64{1}, Setup: []float64{1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1}},
	}
	for i, p := range bad {
		if _, err := SolveTree(p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestTreeEpsilonOnly(t *testing.T) {
	// ε covers all demand along every path; no production at all.
	p := &TreeProblem{
		Parent: []int{-1, 0, 0},
		Prob:   []float64{1, 0.4, 0.6},
		Setup:  []float64{5, 5, 5},
		Unit:   []float64{1, 1, 1},
		Hold:   []float64{0.1, 0.2, 0.3},
		Demand: []float64{1, 1, 2},

		InitialInventory: 3,
	}
	sol, err := SolveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	// Leftovers: root 3−1=2 (hold 0.1·1·2), left child 2−1=1 (0.2·0.4·1),
	// right child 2−2=0. Cost = 0.2 + 0.08 = 0.28.
	if math.Abs(sol.Cost-0.28) > 1e-9 {
		t.Fatalf("cost %v, want 0.28", sol.Cost)
	}
	for v := range sol.Setup {
		if sol.Setup[v] {
			t.Fatalf("unnecessary setup at %d", v)
		}
	}
}

func BenchmarkTreeDPWide(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	parent, prob := balancedTree([]int{3, 3, 3, 3, 3}) // 364 vertices
	p := fillTree(rng, parent, prob, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveTree(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeDPStages times the DP on the branch-3 trees scenario.Build
// expands for 3, 4 and 5 future stages, with per-stage demand as core
// fills them: the shape of every uncapacitated rentpland plan.
func BenchmarkTreeDPStages(b *testing.B) {
	for _, stages := range []int{3, 4, 5} {
		p := stageTree(b, stageDemand(rand.New(rand.NewSource(6)), stages), 0.1)
		b.Run(fmt.Sprintf("n=%d", p.N()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveTree(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChainDP24(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := randomChain(rng, 24, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveChain(p); err != nil {
			b.Fatal(err)
		}
	}
}
