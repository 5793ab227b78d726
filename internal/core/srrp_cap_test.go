package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rentplan/internal/market"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
)

// capFuzzMaxNodes caps every branch-and-bound search of the capacitated
// fuzz target, so that one input costs at most about a second: capacities
// that bind at several stages make the search heavy-tailed. An input whose
// reference stops at the cap is skipped.
const capFuzzMaxNodes = 1000

// capFuzzReference is the reference search: serial, and cold at every node.
var capFuzzReference = mip.Options{Workers: 1, NoWarmStart: true, MaxNodes: capFuzzMaxNodes}

// fuzzCapacitatedSRRP decodes fuzz bytes into a capacitated SRRP instance:
// a tree of 1 to 4 stages with 1 to 3 children per vertex (at most 40
// vertices), rental prices in [0.005, 1], per-stage demands in [0, 2]
// (about a quarter of them zero), an initial inventory in [0, 2] on an odd
// second byte, a consumption rate of 1 or in [0.5, 1.5], and capacities
// drawn slack at every stage, tight at every stage (between the stage's
// demand and the demand left on the path), mixed per stage among slack,
// tight and 0, or slack with 0 at one stage.
func fuzzCapacitatedSRRP(data []byte) (Params, *scenario.Tree, []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	frac := func() float64 { return float64(next()) / 255 }
	stages := 1 + int(next())%4
	par := DefaultParams(market.C1Medium)
	if next()%2 == 1 {
		par.Epsilon = 2 * frac()
	}
	price := func() float64 { return 0.005 + 0.995*frac() }
	tr := &scenario.Tree{
		Parent: []int{-1}, Prob: []float64{1}, Stage: []int{0},
		Price: []float64{price()}, OutOfBid: []bool{false},
	}
	level := []int{0}
	for s := 1; s < stages; s++ {
		var below []int
		for _, v := range level {
			weights := make([]float64, 1+int(next())%3)
			sum := 0.0
			for i := range weights {
				weights[i] = 1 + float64(next()%4)
				sum += weights[i]
			}
			for _, w := range weights {
				tr.Parent = append(tr.Parent, v)
				tr.Prob = append(tr.Prob, tr.Prob[v]*w/sum)
				tr.Stage = append(tr.Stage, s)
				tr.Price = append(tr.Price, price())
				tr.OutOfBid = append(tr.OutOfBid, next()%2 == 1)
				below = append(below, len(tr.Parent)-1)
			}
		}
		level = below
	}
	dem := make([]float64, stages)
	for s := range dem {
		if b := next(); b%4 != 0 {
			dem[s] = 2 * float64(b) / 255
		}
	}
	remaining := make([]float64, stages+1)
	for s := stages - 1; s >= 0; s-- {
		remaining[s] = remaining[s+1] + dem[s]
	}
	par.ConsumptionRate = 1
	if b := next(); b%2 == 1 {
		par.ConsumptionRate = 0.5 + float64(b)/255
	}
	slack := par.ConsumptionRate * (remaining[0] + 1)
	tight := func(s int) float64 {
		return par.ConsumptionRate * (dem[s] + frac()*(remaining[s]-dem[s]))
	}
	par.Capacity = make([]float64, stages)
	switch mode := next() % 4; mode {
	case 0:
		for s := range par.Capacity {
			par.Capacity[s] = slack
		}
	case 1:
		for s := range par.Capacity {
			par.Capacity[s] = tight(s)
		}
	case 2:
		for s := range par.Capacity {
			switch next() % 3 {
			case 0:
				par.Capacity[s] = slack
			case 1:
				par.Capacity[s] = tight(s)
			}
		}
	default:
		for s := range par.Capacity {
			par.Capacity[s] = slack
		}
		par.Capacity[int(next())%stages] = 0
	}
	par.Solver = mip.Options{Workers: 1, MaxNodes: capFuzzMaxNodes}
	return par, tr, dem
}

// capFuzzSeeds are the seed inputs of FuzzCapacitatedSRRPMatchesMILP: the
// one-vertex tree, 40-vertex trees under slack, tight and mixed capacities,
// and random bytes whose instances fit the uncapacitated plan (sources 10,
// 26, 52, 55), bind and solve (1, 2, 23, 50) or bind and are infeasible
// (7). TestCapacitatedSRRPSeedsCoverBothPaths pins that they reach both
// sides of the selection.
var capFuzzSeeds = func() [][]byte {
	seeds := [][]byte{{0}, fullTreeSeed(1, 0), fullTreeSeed(2, 1), fullTreeSeed(3, 2)}
	for _, src := range []int64{1, 2, 7, 10, 23, 26, 50, 52, 55} {
		b := make([]byte, 256)
		rand.New(rand.NewSource(src)).Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}()

// fullTreeSeed encodes, in fuzzCapacitatedSRRP's byte layout, a 4-stage
// tree with three children at every vertex (40 vertices), no initial
// inventory, consumption rate 1 and the given capacity mode; prices,
// weights, demands and the capacity draws come from src.
func fullTreeSeed(src int64, mode byte) []byte {
	rng := rand.New(rand.NewSource(src))
	draw := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	b := append([]byte{3, 0}, draw(1)...)
	for v := 0; v < 13; v++ {
		b = append(b, 2)
		b = append(b, draw(3+3*2)...)
	}
	b = append(b, draw(4)...)
	b = append(b, 0, mode)
	return append(b, draw(8)...)
}

// capacityBinds reports whether the optimal plan of par's instance with its
// capacities dropped breaks a bottleneck row (15) of par, and returns that
// plan.
func capacityBinds(t *testing.T, par Params, tr *scenario.Tree, dem []float64) (*StochasticPlan, bool) {
	t.Helper()
	relaxed := par
	relaxed.Capacity, relaxed.ConsumptionRate = nil, 0
	plan, err := SolveSRRP(relaxed, tr, dem)
	if err != nil {
		t.Fatalf("uncapacitated solve: %v", err)
	}
	for v, a := range plan.Alpha {
		if par.ConsumptionRate*a > par.Capacity[tr.Stage[v]] {
			return plan, true
		}
	}
	return plan, false
}

// FuzzCapacitatedSRRPMatchesMILP holds capacitated SolveSRRP to the
// deterministic equivalent solved by branch-and-bound (BuildSRRPMILP plus
// a serial, cold mip.Solve). On every decoded instance whose reference
// solve is proven optimal or infeasible, SolveSRRP must reach the same
// verdict and an expected cost within 1e-7 relative. A plan without MILP
// stats (the tree DP's answer) must fit every capacity exactly and satisfy
// balance (14). Where a capacity binds at the uncapacitated optimum, the
// result must equal the MILP path's bit for bit; where none does, it must
// be the uncapacitated plan.
func FuzzCapacitatedSRRPMatchesMILP(f *testing.F) {
	for _, seed := range capFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		par, tr, dem := fuzzCapacitatedSRRP(data)
		prob, _, err := BuildSRRPMILP(par, tr, dem)
		if err != nil {
			t.Fatalf("%d vertices: build: %v", tr.N(), err)
		}
		ref, err := mip.SolveWithOptions(prob, capFuzzReference)
		if err != nil {
			t.Fatalf("%d vertices: reference: %v", tr.N(), err)
		}
		if ref.Status != mip.StatusOptimal && ref.Status != mip.StatusInfeasible {
			t.Skipf("%d vertices: reference stopped with status %v after %d nodes", tr.N(), ref.Status, ref.Stats.Nodes)
		}
		got, err := SolveSRRP(par, tr, dem)
		if ref.Status == mip.StatusInfeasible {
			if err == nil {
				t.Fatalf("%d vertices: reference infeasible, SolveSRRP planned cost %v", tr.N(), got.ExpCost)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d vertices: reference optimal (obj %v), SolveSRRP: %v", tr.N(), ref.Obj, err)
		}
		want := ref.Obj
		for v := 0; v < tr.N(); v++ {
			want += tr.Prob[v] * par.Pricing.TransferOutPerGB * dem[tr.Stage[v]]
		}
		if math.Abs(got.ExpCost-want) > 1e-7*math.Max(math.Abs(want), 1e-9) {
			t.Fatalf("%d vertices: ExpCost %v, reference %v", tr.N(), got.ExpCost, want)
		}
		if got.Stats == nil {
			for v, a := range got.Alpha {
				s := tr.Stage[v]
				if par.ConsumptionRate*a > par.Capacity[s] {
					t.Fatalf("vertex %d: DP plan produces %v over stage %d's capacity %v at rate %v", v, a, s, par.Capacity[s], par.ConsumptionRate)
				}
				in := par.Epsilon
				if v > 0 {
					in = got.Beta[tr.Parent[v]]
				}
				if got.Beta[v] < 0 || math.Abs(in+a-got.Beta[v]-dem[s]) > 1e-9*(1+in+a) {
					t.Fatalf("vertex %d: balance %v + %v - %v != demand %v", v, in, a, got.Beta[v], dem[s])
				}
			}
		}
		relaxed, binds := capacityBinds(t, par, tr, dem)
		if !binds {
			if got.Stats != nil || got.ExpCost != relaxed.ExpCost || !reflect.DeepEqual(got.Alpha, relaxed.Alpha) ||
				!reflect.DeepEqual(got.Beta, relaxed.Beta) || !reflect.DeepEqual(got.Chi, relaxed.Chi) {
				t.Fatalf("%d vertices: no capacity binds, but the plan is not the uncapacitated one", tr.N())
			}
			return
		}
		milp, err := solveSRRPMILP(context.Background(), par, tr, dem)
		if err != nil {
			t.Fatalf("%d vertices: MILP path: %v", tr.N(), err)
		}
		if got.Stats == nil {
			t.Fatalf("%d vertices: a capacity binds, but no branch-and-bound ran", tr.N())
		}
		// Stats carries wall-clock fields; the search itself must match.
		g, m := *got, *milp
		g.Stats, m.Stats = nil, nil
		if !reflect.DeepEqual(g, m) || got.Stats.Nodes != milp.Stats.Nodes || got.Stats.SimplexIters != milp.Stats.SimplexIters {
			t.Fatalf("%d vertices: a capacity binds, but the plan differs from the MILP path's:\n got %+v\nwant %+v", tr.N(), got, milp)
		}
	})
}

// TestCapacitatedSRRPSeedsCoverBothPaths pins that the fuzz seeds reach
// both sides of the selection, so a plain go test run of the fuzz target
// checks the DP answer and the MILP fallback alike.
func TestCapacitatedSRRPSeedsCoverBothPaths(t *testing.T) {
	dp, milp := 0, 0
	for _, seed := range capFuzzSeeds {
		par, tr, dem := fuzzCapacitatedSRRP(seed)
		if _, binds := capacityBinds(t, par, tr, dem); binds {
			milp++
		} else {
			dp++
		}
	}
	if dp == 0 || milp == 0 {
		t.Fatalf("fuzz seeds: %d fit the uncapacitated plan and %d bind; want both", dp, milp)
	}
}

// TestSRRPShortCapacitySeries pins the error of a capacity series that does
// not cover every tree stage: the one BuildSRRPMILP gives, whether or not
// the uncapacitated plan fits the stages the series does cover.
func TestSRRPShortCapacitySeries(t *testing.T) {
	tr := srrpTree(t, 3, 0.060)
	dem := []float64{0.4, 0.5, 0.3, 0.6}
	for _, capacity := range [][]float64{{1e6, 1e6}, {0.1, 0.1}, {}} {
		par := DefaultParams(market.C1Medium)
		par.ConsumptionRate, par.Capacity = 1, capacity
		_, _, buildErr := BuildSRRPMILP(par, tr, dem)
		plan, err := SolveSRRP(par, tr, dem)
		if err == nil || buildErr == nil || err.Error() != buildErr.Error() {
			t.Fatalf("capacity %v: plan %v, error %v; want BuildSRRPMILP's error %v", capacity, plan != nil, err, buildErr)
		}
	}
	par := DefaultParams(market.C1Medium)
	par.ConsumptionRate, par.Capacity = 1, []float64{1e6, 1e6}
	if _, err := SolveSRRP(par, tr, dem); err == nil || err.Error() != "core: capacity series shorter than stages (2 < 4)" {
		t.Fatalf("error %v", err)
	}
}
