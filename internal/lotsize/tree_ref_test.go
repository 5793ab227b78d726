package lotsize

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

// solveTreeRef is the map-memoised tree DP that SolveTree replaced, kept
// verbatim as the oracle SolveTree must match bit for bit: one
// map[float64]decision memo per vertex, keyed by the incoming cumulative
// supply, one merged target slice per vertex and a recursive closure.
func solveTreeRef(p *TreeProblem) (*TreeSolution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.N()
	children := make([][]int, n)
	for v := 1; v < n; v++ {
		children[p.Parent[v]] = append(children[p.Parent[v]], v)
	}
	cumD := make([]float64, n)
	for v := 0; v < n; v++ {
		if v == 0 {
			cumD[0] = p.Demand[0]
		} else {
			cumD[v] = cumD[p.Parent[v]] + p.Demand[v]
		}
	}
	// Subtree holding mass H_v = Σ_{w ∈ subtree(v)} p_w·Hold_w and the
	// modified unit cost ĉ_v, via reverse topological order.
	H := make([]float64, n)
	for v := n - 1; v >= 0; v-- {
		H[v] = p.Prob[v] * p.Hold[v]
		for _, c := range children[v] {
			H[v] += H[c]
		}
	}
	chat := make([]float64, n)
	for v := 0; v < n; v++ {
		chat[v] = p.Prob[v]*p.Unit[v] + H[v]
	}
	// Candidate production targets per vertex: sorted distinct cumD values
	// of the subtree. Built by merging children lists (reverse topo).
	targets := make([][]float64, n)
	for v := n - 1; v >= 0; v-- {
		merged := []float64{cumD[v]}
		for _, c := range children[v] {
			merged = mergeSortedUnique(merged, targets[c])
		}
		targets[v] = merged
	}

	// Memoised DP over (vertex, incoming cumulative supply Y).
	type decision struct {
		cost    float64
		produce bool
		target  float64
	}
	memo := make([]map[float64]decision, n)
	for v := range memo {
		memo[v] = make(map[float64]decision)
	}
	const tol = 1e-12
	var solve func(v int, y float64) float64
	solve = func(v int, y float64) float64 {
		if d, ok := memo[v][y]; ok {
			return d.cost
		}
		best := decision{cost: math.Inf(1)}
		// Option 1: no production at v (feasible if supply already covers
		// the cumulative demand through v).
		if y >= cumD[v]-tol {
			c := 0.0
			for _, ch := range children[v] {
				c += solve(ch, y)
			}
			if c < best.cost {
				best = decision{cost: c, produce: false, target: y}
			}
		}
		// Option 2: produce up to a binding future requirement t > y.
		for _, t := range targets[v] {
			if t <= y+tol || t < cumD[v]-tol {
				continue
			}
			c := p.Prob[v]*p.Setup[v] + chat[v]*(t-y)
			if c >= best.cost {
				continue // children costs are ≥ 0; prune
			}
			for _, ch := range children[v] {
				c += solve(ch, t)
				if c >= best.cost {
					break
				}
			}
			if c < best.cost {
				best = decision{cost: c, produce: true, target: t}
			}
		}
		memo[v][y] = best
		return best.cost
	}
	root := solve(0, p.InitialInventory)
	if math.IsInf(root, 1) {
		return nil, errors.New("lotsize: infeasible tree plan (internal error)")
	}
	constCost := 0.0
	for v := 0; v < n; v++ {
		constCost += p.Prob[v] * p.Hold[v] * (p.InitialInventory - cumD[v])
	}
	sol := &TreeSolution{
		Cost:      root + constCost,
		Produce:   make([]float64, n),
		Setup:     make([]bool, n),
		Inventory: make([]float64, n),
	}
	// Reconstruct the plan by replaying the memoised decisions.
	type walk struct {
		v int
		y float64
	}
	stack := []walk{{0, p.InitialInventory}}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d, ok := memo[w.v][w.y]
		if !ok {
			return nil, errors.New("lotsize: reconstruction state missing (internal error)")
		}
		y := w.y
		if d.produce {
			sol.Produce[w.v] = d.target - y
			sol.Setup[w.v] = true
			y = d.target
		}
		sol.Inventory[w.v] = y - cumD[w.v]
		if sol.Inventory[w.v] < 0 && sol.Inventory[w.v] > -1e-9 {
			sol.Inventory[w.v] = 0
		}
		for _, c := range children[w.v] {
			stack = append(stack, walk{c, y})
		}
	}
	return sol, nil
}

// mergeSortedUnique merges two ascending slices, dropping duplicates (within
// exact float equality, which holds because all values are shared cumD
// sums).
func mergeSortedUnique(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v float64
		switch {
		case i >= len(a):
			v = b[j]
			j++
		case j >= len(b):
			v = a[i]
			i++
		case a[i] < b[j]:
			v = a[i]
			i++
		case b[j] < a[i]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		if len(out) == 0 || out[len(out)-1] != v { // dedup of values copied verbatim from the inputs: equal means bit-identical here
			out = append(out, v)
		}
	}
	return out
}

// treeDiff names the first value in which got and want differ by
// math.Float64bits (or the Setup flags), or returns "" when they are
// bit-identical.
func treeDiff(got, want *TreeSolution) string {
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Sprintf("Cost %v, want %v", got.Cost, want.Cost)
	}
	if len(got.Produce) != len(want.Produce) {
		return fmt.Sprintf("%d vertices, want %d", len(got.Produce), len(want.Produce))
	}
	for v := range want.Produce {
		switch {
		case math.Float64bits(got.Produce[v]) != math.Float64bits(want.Produce[v]):
			return fmt.Sprintf("Produce[%d] %v, want %v", v, got.Produce[v], want.Produce[v])
		case got.Setup[v] != want.Setup[v]:
			return fmt.Sprintf("Setup[%d] %v, want %v", v, got.Setup[v], want.Setup[v])
		case math.Float64bits(got.Inventory[v]) != math.Float64bits(want.Inventory[v]):
			return fmt.Sprintf("Inventory[%d] %v, want %v", v, got.Inventory[v], want.Inventory[v])
		}
	}
	return ""
}

// stageTreeBase is core's test price distribution; a 0.061 bid keeps three
// states below it, aggregated to two, plus the out-of-bid state: branch 3.
var stageTreeBase = stats.Discrete{
	Values: []float64{0.056, 0.058, 0.060, 0.062, 0.064},
	Probs:  []float64{0.1, 0.2, 0.4, 0.2, 0.1},
}

// stageTree is the TreeProblem core.SolveSRRP builds from a branch-3
// scenario.Build tree with the given future stages: Setup is the state's
// price, Unit and Hold are the default transfer-in and holding
// coefficients, and every vertex of stage s has demand dem[s].
func stageTree(tb testing.TB, dem []float64, eps float64) *TreeProblem {
	tb.Helper()
	stages := len(dem) - 1
	bids := make([]float64, stages)
	for i := range bids {
		bids[i] = 0.061
	}
	tr, err := scenario.Build(stageTreeBase, bids, 0.2, scenario.BuildConfig{Stages: stages, MaxBranch: 3, RootPrice: 0.06})
	if err != nil {
		tb.Fatal(err)
	}
	return coreTree(tr, func(v int) float64 { return dem[tr.Stage[v]] }, eps)
}

// coreTree fills a scenario tree the way core does, with demand dem(v).
func coreTree(tr *scenario.Tree, dem func(v int) float64, eps float64) *TreeProblem {
	n := tr.N()
	p := &TreeProblem{
		Parent: tr.Parent, Prob: tr.Prob, Setup: tr.Price,
		Unit: make([]float64, n), Hold: make([]float64, n), Demand: make([]float64, n),
		InitialInventory: eps,
	}
	for v := 0; v < n; v++ {
		p.Unit[v], p.Hold[v], p.Demand[v] = 0.05, 0.1/730+0.2, dem(v)
	}
	return p
}

// stageDemand draws a per-stage demand series of stages+1 entries.
func stageDemand(rng *rand.Rand, stages int) []float64 {
	dem := make([]float64, stages+1)
	for s := range dem {
		dem[s] = 0.1 + rng.Float64()
	}
	return dem
}

// TestTreeDPMatchesReference pins SolveTree to the map DP it replaced: the
// cost and every Produce, Setup and Inventory value must agree bit for bit.
func TestTreeDPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type tcase struct {
		name string
		p    *TreeProblem
	}
	var cases []tcase
	add := func(name string, p *TreeProblem) { cases = append(cases, tcase{name, p}) }
	for _, size := range []struct{ stages, n int }{{3, 40}, {4, 121}, {5, 364}, {8, 9841}} {
		for _, eps := range []float64{0, 0.7} {
			p := stageTree(t, stageDemand(rng, size.stages), eps)
			if p.N() != size.n {
				t.Fatalf("%d-stage tree has %d vertices, want %d", size.stages, p.N(), size.n)
			}
			add(fmt.Sprintf("build %d stages eps %v", size.stages, eps), p)
		}
	}
	for i, shape := range [][]int{{2, 2}, {3, 2}, {2, 2, 2}, {4}, {2, 1, 2}, {3, 3, 3}, {3, 3, 3, 3, 3}} {
		parent, prob := balancedTree(shape)
		eps := 0.0
		if i%2 == 1 {
			eps = rng.Float64() * 2
		}
		add(fmt.Sprintf("fillTree %v", shape), fillTree(rng, parent, prob, eps))
	}
	demStates := stats.Discrete{Values: []float64{0.3, 0.5, 0.8}, Probs: []float64{0.3, 0.4, 0.3}}
	for _, stages := range []int{2, 3, 4} {
		bids := make([]float64, stages)
		for i := range bids {
			bids[i] = 0.061
		}
		tr, dem, err := scenario.BuildJoint(stageTreeBase, bids, 0.2, demStates, 0.4, scenario.BuildConfig{Stages: stages, MaxBranch: 3, RootPrice: 0.06})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("joint %d stages", stages), coreTree(tr, func(v int) float64 { return dem[v] }, 0.2))
	}
	dem := []float64{0.4, 0.5, 0.3, 0.6, 0.2}
	cum := 0.0
	for s, d := range dem {
		cum += d
		add(fmt.Sprintf("eps = cumulative demand of stage %d", s), stageTree(t, dem, cum))
	}
	add("eps above every cumulative demand", stageTree(t, dem, cum+1))
	add("zero-demand stages", stageTree(t, []float64{0, 0.5, 0, 0, 0.3}, 0))
	add("zero demand everywhere", stageTree(t, []float64{0, 0, 0, 0}, 0))
	negZero := math.Copysign(0, -1)
	add("eps −0 with zero demand", stageTree(t, []float64{0, 0, 0.5, 0}, negZero))
	add("demand −0 with eps +0", stageTree(t, []float64{negZero, negZero, 0.5, 0}, 0))
	add("eps −0 on a path", &TreeProblem{
		Parent: []int{-1, 0, 1}, Prob: []float64{1, 1, 1},
		Setup: []float64{1, 1, 1}, Unit: []float64{1, 1, 1}, Hold: []float64{0.1, 0.1, 0.1},
		Demand: []float64{0, 0.5, 0}, InitialInventory: negZero,
	})
	add("cumulative demands within 1e-12", stageTree(t, []float64{0.1, 0.2, 1e-13, 0.3, 5e-13}, 0.3))
	add("cumulative demands just beyond 1e-12", stageTree(t, []float64{0.1, 0.2, 2e-12, 0.3, 3e-12}, 0.3))
	near := stageTree(t, []float64{0.1, 0.2, 0.3, 0.4}, 0)
	for v := range near.Demand {
		near.Demand[v] += float64(v%3) * 4e-13
	}
	add("per-vertex demands within 1e-12", near)

	for _, c := range cases {
		want, err := solveTreeRef(c.p)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		got, err := SolveTree(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := treeDiff(got, want); d != "" {
			t.Errorf("%s (%d vertices): %s", c.name, c.p.N(), d)
		}
	}
}

// TestTreeDPConcurrentPool solves distinct trees from eight goroutines at
// once, so pooled scratch is handed between trees of different sizes; every
// result must equal the serial solve of its tree.
func TestTreeDPConcurrentPool(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	probs := make([]*TreeProblem, 8)
	want := make([]*TreeSolution, len(probs))
	for i := range probs {
		if i%2 == 0 {
			probs[i] = stageTree(t, stageDemand(rng, 2+i/2), rng.Float64())
		} else {
			parent, prob := balancedTree([]int{3, 2, 1 + i%3})
			probs[i] = fillTree(rng, parent, prob, rng.Float64())
		}
		var err error
		if want[i], err = SolveTree(probs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range probs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 40; rep++ {
				got, err := SolveTree(probs[i])
				if err != nil {
					t.Errorf("tree %d: %v", i, err)
					return
				}
				if d := treeDiff(got, want[i]); d != "" {
					t.Errorf("tree %d, solve %d: %s", i, rep, d)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestTreeDPAllocs asserts that a solve allocates only its TreeSolution:
// the struct and its three slices.
func TestTreeDPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values at random")
	}
	p := stageTree(t, []float64{0.4, 0.5, 0.3, 0.6, 0.2}, 0.1) // 121 vertices
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := SolveTree(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("SolveTree on %d vertices makes %.1f allocations, want ≤ 4", p.N(), allocs)
	}
}

// fuzzTree decodes fuzz bytes into a tree of at most 30 vertices with
// topological parents. Values come from small grids, so cumulative demands
// tie exactly (0.5 + 0.5 = 1), within the covering tolerance (0.1 + 0.2 vs
// 0.3) and just beyond it (2e-12). A 0xFF byte puts a NaN, an infinity or a negative value in its
// place instead, which validate must reject.
func fuzzTree(data []byte) *TreeProblem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	pick := func(grid []float64) float64 {
		b := next()
		if b == 0xFF {
			return bad[int(next())%len(bad)]
		}
		return grid[int(b)%len(grid)]
	}
	probs := []float64{1, 0.5, 0.25, 0.75, 0.125}
	costs := []float64{0, 0.5, 1, 2, 3, 0.1}
	demands := []float64{0, 0.1, 0.2, 0.3, 0.5, 1, 1.5, 2e-12}
	n := 1 + int(next())%30
	p := &TreeProblem{
		Parent: make([]int, n), Prob: make([]float64, n), Setup: make([]float64, n),
		Unit: make([]float64, n), Hold: make([]float64, n), Demand: make([]float64, n),
		InitialInventory: pick([]float64{0, 0.3, 0.5, 1, 2, 5}),
	}
	p.Parent[0] = -1
	for v := 0; v < n; v++ {
		if v > 0 {
			p.Parent[v] = int(next()) % v
		}
		p.Prob[v] = pick(probs)
		p.Setup[v], p.Unit[v], p.Hold[v] = pick(costs), pick(costs), pick(costs)
		p.Demand[v] = pick(demands)
	}
	return p
}

// FuzzTreeDP checks SolveTree against the map DP on decoded trees: no
// panic, an error whenever validate rejects the problem, and otherwise a
// bit-identical solution.
func FuzzTreeDP(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 0, 1, 2, 3, 4, 5, 0, 1, 1, 1, 2, 3, 6, 1, 2, 2, 2, 1, 4})
	f.Add([]byte{29, 2, 5, 4, 3, 2, 1, 0, 6, 5, 4, 3, 2, 1, 0xFF, 0, 7, 7, 7, 7})
	f.Add([]byte{12, 0, 0, 0, 1, 2, 3, 0, 0, 1, 0xFF, 1, 2, 5, 5, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzTree(data)
		got, err := SolveTree(p)
		if verr := p.validate(); verr != nil {
			if err == nil {
				t.Fatalf("validate rejects (%v) but SolveTree returned no error", verr)
			}
			return
		}
		want, werr := solveTreeRef(p)
		if (err == nil) != (werr == nil) {
			t.Fatalf("SolveTree error %v, reference error %v", err, werr)
		}
		if err != nil {
			return
		}
		if d := treeDiff(got, want); d != "" {
			t.Fatalf("%d vertices: %s", p.N(), d)
		}
	})
}
