package rentplan_test

// One benchmark per table/figure of the paper's evaluation section, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// figure bench runs the corresponding experiment harness end to end on the
// reduced (QuickConfig) scenario so `go test -bench=.` regenerates every
// result in seconds; `cmd/paperrepro` runs the full-scale versions.

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"rentplan/internal/arima"
	"rentplan/internal/benders"
	"rentplan/internal/core"
	"rentplan/internal/demand"
	"rentplan/internal/experiments"
	"rentplan/internal/lotsize"
	"rentplan/internal/lp"
	"rentplan/internal/market"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

func quickCfg(b *testing.B) *experiments.Config {
	b.Helper()
	cfg, err := experiments.QuickConfig(7)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

func BenchmarkFig3BoxWhisker(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3BoxWhisker(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4UpdateFrequency(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4UpdateFrequency(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Histogram(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5Histogram(cfg, cfg.EvalDays[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Decomposition(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6Decomposition(cfg, cfg.EvalDays[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ACFPACF(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7ACFPACF(cfg, cfg.EvalDays[0], 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Forecast(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8Forecast(cfg, cfg.EvalDays[0], false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.Improvement, "improvement_%")
		}
	}
}

func BenchmarkFig10CostComparison(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10CostComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].ReductionPct, "xlarge_reduction_%")
		}
	}
}

func BenchmarkFig11Sensitivity(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11Sensitivity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12aOverpay(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12aOverpay(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.Fig12aValidate(rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12bBidPrecision(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig12bBidPrecision(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullReport(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(cfg, io.Discard, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// drrpInstance builds a representative DRRP day for the ablations.
func drrpInstance(T int) (core.Params, []float64, []float64) {
	par := core.DefaultParams(market.M1Large)
	lambda := par.Pricing.OnDemand[market.M1Large]
	prices := make([]float64, T)
	for t := range prices {
		prices[t] = lambda
	}
	dem := demand.Series(demand.NewTruncNormal(0.4, 0.2, 11), T)
	return par, prices, dem
}

// BenchmarkAblationDRRPviaDP and ...viaMILP compare the exact Wagner–Whitin
// dynamic program against branch-and-bound on the same 24-slot instance.
func BenchmarkAblationDRRPviaDP(b *testing.B) {
	par, prices, dem := drrpInstance(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveDRRP(par, prices, dem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDRRPviaMILP(b *testing.B) {
	par, prices, dem := drrpInstance(24)
	prob, _, err := core.BuildDRRPMILP(par, prices, dem)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := mip.Solve(prob)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != mip.StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func srrpInstance(b *testing.B, stages, maxBranch int) (core.Params, *scenario.Tree, []float64) {
	b.Helper()
	base := stats.Discrete{
		Values: []float64{0.056, 0.058, 0.060, 0.062, 0.064},
		Probs:  []float64{0.1, 0.2, 0.4, 0.2, 0.1},
	}
	par := core.DefaultParams(market.C1Medium)
	bids := make([]float64, stages)
	for i := range bids {
		bids[i] = 0.060
	}
	tree, err := scenario.Build(base, bids, 0.2, scenario.BuildConfig{
		Stages:    stages,
		MaxBranch: maxBranch,
		RootPrice: 0.06,
	})
	if err != nil {
		b.Fatal(err)
	}
	dem := demand.Series(demand.NewTruncNormal(0.4, 0.2, 3), stages+1)
	return par, tree, dem
}

// BenchmarkAblationSRRPviaDP and ...viaMILP compare the scenario-tree
// dynamic program against the deterministic-equivalent MILP. The DP bench
// runs the paper-scale 5-stage tree (364 vertices); the MILP bench runs a
// 3-stage tree (40 vertices) — even with the tightened formulation
// (remaining-path-demand forcing bounds, α−β ≤ D·χ valid inequalities)
// branch-and-bound needs minutes beyond that, which is the ablation's
// finding: the exact DP is the only practical path at the paper's scale.
func BenchmarkAblationSRRPviaDP(b *testing.B) {
	par, tree, dem := srrpInstance(b, 5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveSRRP(par, tree, dem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSRRPviaMILP(b *testing.B) {
	par, tree, dem := srrpInstance(b, 3, 3)
	prob, _, err := core.BuildSRRPMILP(par, tree, dem)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := mip.SolveWithOptions(prob, mip.Options{MaxNodes: 500000})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != mip.StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkSRRPMILPWorkers measures the parallel branch-and-bound speedup on
// the SRRP deterministic equivalent: the serial path (Workers=1) against a
// worker pool sized to the machine.
func BenchmarkSRRPMILPWorkers(b *testing.B) {
	par, tree, dem := srrpInstance(b, 3, 3)
	prob, _, err := core.BuildSRRPMILP(par, tree, dem)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				sol, err := mip.SolveWithOptions(prob, mip.Options{
					MaxNodes: 500000, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != mip.StatusOptimal {
					b.Fatalf("status %v", sol.Status)
				}
				nodes = sol.Nodes
			}
			b.ReportMetric(float64(nodes), "bb_nodes")
		})
	}
}

// BenchmarkWarmVsColdSRRP measures LP basis warm-starting on the SRRP
// deterministic equivalent: the same serial branch-and-bound search with
// child relaxations re-solved from the parent basis (warm) versus every node
// cold-starting the two-phase simplex. Both must prove the same optimum; the
// metric of interest is total simplex iterations (the per-node work), with
// the warm hit/miss/fallback split for diagnosis. The 4-stage tree is the
// smallest SRRP instance whose search actually branches (the 3-stage
// relaxation is integral at the root, leaving nothing to warm-start).
func BenchmarkWarmVsColdSRRP(b *testing.B) {
	par, tree, dem := srrpInstance(b, 4, 3)
	prob, _, err := core.BuildSRRPMILP(par, tree, dem)
	if err != nil {
		b.Fatal(err)
	}
	for _, warm := range []bool{true, false} {
		name := "warm"
		if !warm {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			var st mip.Stats
			for i := 0; i < b.N; i++ {
				sol, err := mip.SolveWithOptions(prob, mip.Options{
					MaxNodes: 500000, Workers: 1, NoWarmStart: !warm,
				})
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != mip.StatusOptimal {
					b.Fatalf("status %v", sol.Status)
				}
				st = sol.Stats
			}
			b.ReportMetric(float64(st.SimplexIters), "simplex_iters")
			b.ReportMetric(float64(st.Nodes), "bb_nodes")
			if warm {
				b.ReportMetric(float64(st.WarmHits), "warm_hits")
				b.ReportMetric(float64(st.WarmMisses), "warm_misses")
				b.ReportMetric(float64(st.WarmFallbacks), "warm_fallbacks")
			}
		})
	}
}

// BenchmarkSparseVsDenseSRRP times the LP relaxation of the 5-stage/branch-3
// SRRP deterministic equivalent (364 tree vertices) under both pricing
// modes on the same model: candidate-list pricing (the default) and full
// Dantzig pricing (Options.FullPricing). Both keep the basis as the
// triangular peel's sparse factors plus an eta file, and both must reach
// the same optimum.
func BenchmarkSparseVsDenseSRRP(b *testing.B) {
	par, tree, dem := srrpInstance(b, 5, 3)
	prob, _, err := core.BuildSRRPMILP(par, tree, dem)
	if err != nil {
		b.Fatal(err)
	}
	objs := map[string]float64{}
	run := func(name string, opts lp.Options) {
		b.Run(name, func(b *testing.B) {
			var sol *lp.Solution
			for i := 0; i < b.N; i++ {
				var err error
				sol, err = lp.SolveWithOptions(prob.LP, opts)
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != lp.StatusOptimal {
					b.Fatalf("status %v", sol.Status)
				}
			}
			objs[name] = sol.Obj
			b.ReportMetric(float64(sol.Iterations), "simplex_iters")
			b.ReportMetric(float64(sol.PricingSweeps), "pricing_sweeps")
			b.ReportMetric(float64(sol.CandidateHits), "candidate_hits")
			b.ReportMetric(float64(sol.NNZ), "nnz")
		})
	}
	run("candidate", lp.Options{})
	run("fullpricing", lp.Options{FullPricing: true})
	// A -bench filter may run only one sub-benchmark; cross-check only when
	// both objectives were recorded.
	if len(objs) == 2 {
		if cOb, fOb := objs["candidate"], objs["fullpricing"]; math.Abs(cOb-fOb) > 1e-7*(1+math.Abs(fOb)) {
			b.Fatalf("objective mismatch: candidate %.12g vs full pricing %.12g", cOb, fOb)
		}
	}
}

// BenchmarkSRRPModelBuild measures model-construction time and allocations
// of the sparse row builder (O(nnz) per row) on the same 5-stage/branch-3
// instance.
func BenchmarkSRRPModelBuild(b *testing.B) {
	par, tree, dem := srrpInstance(b, 5, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.BuildSRRPMILP(par, tree, dem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTreeWidth sweeps the scenario-tree branch cap on a
// trace-derived base distribution (dozens of price states): wider trees
// approximate the distribution better but grow geometrically in both
// vertices and solve time, while the expected cost moves only marginally —
// justifying the paper's small-tree configuration.
func BenchmarkAblationTreeWidth(b *testing.B) {
	gen, err := market.NewGenerator(market.C1Medium, 99)
	if err != nil {
		b.Fatal(err)
	}
	tr := gen.Trace(60)
	hourly, err := tr.Hourly(0, 60*24)
	if err != nil {
		b.Fatal(err)
	}
	base := stats.NewDiscreteFromSamples(hourly, 1e-3)
	par := core.DefaultParams(market.C1Medium)
	bid := stats.Quantile(hourly, 0.6)
	bids := []float64{bid, bid, bid, bid, bid}
	dem := demand.Series(demand.NewTruncNormal(0.4, 0.2, 3), 6)
	for _, width := range []int{2, 3, 4, 6} {
		b.Run(widthName(width), func(b *testing.B) {
			tree, err := scenario.Build(base, bids, 0.2, scenario.BuildConfig{
				Stages: 5, MaxBranch: width, RootPrice: hourly[len(hourly)-1],
			})
			if err != nil {
				b.Fatal(err)
			}
			var cost float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := core.SolveSRRP(par, tree, dem)
				if err != nil {
					b.Fatal(err)
				}
				cost = plan.ExpCost
			}
			b.ReportMetric(float64(tree.N()), "tree_vertices")
			b.ReportMetric(cost, "exp_cost_$")
		})
	}
}

func widthName(w int) string { return "branch=" + string(rune('0'+w)) }

// BenchmarkAblationRollingStride sweeps the SRRP re-planning stride: frequent
// revision costs more solves but adapts faster.
func BenchmarkAblationRollingStride(b *testing.B) {
	cfg := quickCfg(b)
	hist, eval := benchWindow(b, cfg)
	for _, stride := range []int{1, 3, 6} {
		b.Run("replan="+string(rune('0'+stride)), func(b *testing.B) {
			execCfg := &core.ExecConfig{
				Par:        core.DefaultParams(market.C1Medium),
				Actual:     eval,
				Demand:     demand.Series(demand.NewTruncNormal(0.4, 0.2, 5), len(eval)),
				Base:       stats.NewDiscreteFromSamples(hist, 1e-3),
				TreeStages: cfg.TreeStages,
				MaxBranch:  cfg.MaxBranch,
				Replan:     stride,
			}
			bids := arima.MeanForecast(hist, len(eval))
			var cost float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := core.RunStochastic(execCfg, bids)
				if err != nil {
					b.Fatal(err)
				}
				cost = o.Cost
			}
			b.ReportMetric(cost, "realised_cost_$")
		})
	}
}

func benchWindow(b *testing.B, cfg *experiments.Config) (hist, eval []float64) {
	b.Helper()
	tr := cfg.Traces[market.C1Medium]
	day := cfg.EvalDays[0]
	all, err := tr.Events.Resample(float64((day-cfg.HistDays)*24), (cfg.HistDays+1)*24)
	if err != nil {
		b.Fatal(err)
	}
	return all[:cfg.HistDays*24], all[cfg.HistDays*24:]
}

// BenchmarkScenarioTreeBuild measures bid-adjusted tree construction alone.
func BenchmarkScenarioTreeBuild(b *testing.B) {
	base := stats.Discrete{
		Values: []float64{0.056, 0.058, 0.060, 0.062, 0.064},
		Probs:  []float64{0.1, 0.2, 0.4, 0.2, 0.1},
	}
	bids := []float64{0.06, 0.06, 0.06, 0.06, 0.06}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Build(base, bids, 0.2, scenario.BuildConfig{
			Stages: 5, MaxBranch: 4, RootPrice: 0.06,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeDPLarge exercises the stochastic lot-sizing DP on the
// largest tree used anywhere in the reproduction.
func BenchmarkTreeDPLarge(b *testing.B) {
	base := stats.Discrete{
		Values: []float64{0.056, 0.058, 0.060, 0.062, 0.064},
		Probs:  []float64{0.1, 0.2, 0.4, 0.2, 0.1},
	}
	bids := make([]float64, 6)
	for i := range bids {
		bids[i] = 0.061
	}
	tree, err := scenario.Build(base, bids, 0.2, scenario.BuildConfig{
		Stages: 6, MaxBranch: 4, RootPrice: 0.06,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tree.N()
	tp := &lotsize.TreeProblem{
		Parent: tree.Parent,
		Prob:   tree.Prob,
		Setup:  tree.Price,
		Unit:   make([]float64, n),
		Hold:   make([]float64, n),
		Demand: make([]float64, n),
	}
	for v := 0; v < n; v++ {
		tp.Unit[v] = 0.05
		tp.Hold[v] = 0.2
		tp.Demand[v] = 0.4 + 0.01*math.Mod(float64(v), 7)
	}
	b.ReportMetric(float64(n), "tree_vertices")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lotsize.SolveTree(tp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNestedLShaped runs the multistage nested L-shaped method
// on the paper-scale 5-stage tree LP relaxation, against the exact integer
// tree DP for context.
func BenchmarkAblationNestedLShaped(b *testing.B) {
	par, tree, dem := srrpInstance(b, 5, 3)
	b.Run("nested-lshaped-LP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _, err := core.SolveSRRPNestedLShaped(par, tree, dem, benders.NestedOptions{})
			if err != nil || !res.Converged {
				b.Fatalf("%v %+v", err, res)
			}
		}
	})
	b.Run("exact-tree-DP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveSRRP(par, tree, dem); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionStudies runs the beyond-the-paper experiments:
// capacitated DRRP sweep, forecast-horizon decay, and provider federation.
func BenchmarkExtensionCapacitySweep(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CapacitySweep(cfg, []float64{20, 0.8, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionForecastHorizons(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ForecastHorizonStudy(cfg, []int{1, 24}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionFederation(b *testing.B) {
	cfg := quickCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FederationStudy(cfg, []int{1, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCapacitatedDPvsMILP compares the exact Florian–Klein
// dynamic program against branch-and-bound on the same constant-capacity
// DRRP instance.
func BenchmarkAblationCapacitatedDPvsMILP(b *testing.B) {
	par, prices, dem := drrpInstance(14)
	par.ConsumptionRate = 1
	par.Capacity = make([]float64, 14)
	for t := range par.Capacity {
		par.Capacity[t] = 1.0
	}
	b.Run("florian-klein-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveDRRP(par, prices, dem); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("milp-bb", func(b *testing.B) {
		prob, _, err := core.BuildDRRPMILP(par, prices, dem)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := mip.Solve(prob)
			if err != nil || sol.Status != mip.StatusOptimal {
				b.Fatalf("%v %v", sol, err)
			}
		}
	})
}

// BenchmarkDualVsColdSRRP is the headline for the dual-simplex warm path:
// branching-style re-solves of the 5-stage/branch-3 SRRP LP relaxation (the
// BenchmarkSparseVsDenseSRRP instance, m=1092) from the root basis. Children
// are built the way branch-and-bound builds them — one fractional variable's
// bound rounded through the root optimum — and each child is solved three
// ways: dual simplex from the parent basis (the new default), the primal
// bound-repair warm path (NoDual), and the cold two-phase baseline that
// BenchmarkSparseVsDenseSRRP times. All three must reach the identical objective
// on every child; the acceptance metric recorded in BENCH_dual.json is the
// per-child simplex-iteration ratio cold/dual.
func BenchmarkDualVsColdSRRP(b *testing.B) {
	par, tree, dem := srrpInstance(b, 5, 3)
	prob, _, err := core.BuildSRRPMILP(par, tree, dem)
	if err != nil {
		b.Fatal(err)
	}
	root, err := lp.Solve(prob.LP)
	if err != nil || root.Status != lp.StatusOptimal {
		b.Fatalf("root solve: %v %v", root, err)
	}
	// Branching children: round each fractional integer-variable value down
	// (upper bound) or up (lower bound), exactly as the B&B node expansion
	// does.
	type child struct {
		p   *lp.Problem
		obj float64
	}
	var children []child
	for j, isInt := range prob.Integer {
		if !isInt {
			continue
		}
		v := root.X[j]
		f := v - math.Floor(v)
		if f < 1e-6 || f > 1-1e-6 {
			continue
		}
		down := prob.LP.Clone()
		down.Upper[j] = math.Floor(v)
		up := prob.LP.Clone()
		up.Lower[j] = math.Ceil(v)
		children = append(children, child{p: down}, child{p: up})
		if len(children) >= 24 {
			break
		}
	}
	if len(children) < 8 {
		b.Fatalf("only %d branching children — instance no longer fractional?", len(children))
	}
	run := func(name string, solve func(*lp.Problem) (*lp.Solution, error)) (iters int64) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				iters = 0
				for k := range children {
					sol, err := solve(children[k].p)
					if err != nil {
						b.Fatal(err)
					}
					if sol.Status != lp.StatusOptimal && sol.Status != lp.StatusInfeasible {
						b.Fatalf("child %d: status %v", k, sol.Status)
					}
					iters += int64(sol.Iterations)
					if sol.Status == lp.StatusOptimal {
						if children[k].obj == 0 {
							children[k].obj = sol.Obj
						} else if math.Abs(sol.Obj-children[k].obj) > 1e-7*(1+math.Abs(children[k].obj)) {
							b.Fatalf("child %d: objective diverged: %.12g vs %.12g", k, sol.Obj, children[k].obj)
						}
					}
				}
			}
			b.ReportMetric(float64(iters)/float64(len(children)), "simplex_iters_per_child")
		})
		return iters
	}
	dualIters := run("dual-warm", func(p *lp.Problem) (*lp.Solution, error) {
		return lp.SolveFrom(p, root.Basis, lp.Options{})
	})
	primalIters := run("primal-warm", func(p *lp.Problem) (*lp.Solution, error) {
		return lp.SolveFrom(p, root.Basis, lp.Options{NoDual: true})
	})
	coldIters := run("cold", lp.Solve)
	if dualIters > 0 && coldIters > 0 {
		ratio := float64(coldIters) / float64(dualIters)
		b.Logf("iteration reduction: cold %d / dual %d = %.1fx (primal-warm %d)",
			coldIters, dualIters, ratio, primalIters)
		if ratio < 2 {
			b.Fatalf("dual warm re-solve saves only %.2fx iterations, acceptance needs >= 2x", ratio)
		}
	}
}

// BenchmarkBendersNestedParallel is the headline for the parallel nested
// L-shaped solver with the cut warehouse: the 8-stage/branch-3 SRRP tree LP
// relaxation (9841 vertices) solved by the serial cold path — Workers=1 and
// NoWarmStart, replicating the pre-warehouse solver, every vertex LP built
// and solved from scratch on every visit — against the full machinery
// (memoised re-solves, dual-simplex warm starts from the stored vertex
// basis, warehouse dedup). Both must converge to bit-comparable bounds
// (1e-6 relative); the acceptance gate recorded in BENCH_benders.json is a
// >= 3x wall-clock speedup, enforced here so a regression fails `make
// bench-benders` rather than silently shipping, and printed as the
// warehouse-warm sub-benchmark's speedup_vs_serial_cold metric. The win is algorithmic, not
// parallel — backward leaf re-solves always memo-hit and interior re-solves
// restart from the previous basis — so it holds on a single-core runner.
func BenchmarkBendersNestedParallel(b *testing.B) {
	par, tree, dem := srrpInstance(b, 8, 3)
	// run times one configuration; with a baseline (the serial-cold time
	// per solve) it also reports baseline/own time as the speedup metric,
	// so the ratio the gate below enforces prints without -v.
	run := func(name string, opts benders.NestedOptions, baseline time.Duration) (res *benders.NestedResult, perOp time.Duration) {
		b.Run(name, func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				r, _, err := core.SolveSRRPNestedLShaped(par, tree, dem, opts)
				if err != nil || !r.Converged {
					b.Fatalf("%v %+v", err, r)
				}
				res = r
			}
			perOp = time.Since(start) / time.Duration(b.N)
			b.ReportMetric(float64(res.VertexSolves), "vertex_solves")
			b.ReportMetric(float64(res.WarmSolves), "warm_solves")
			b.ReportMetric(float64(res.MemoHits), "memo_hits")
			b.ReportMetric(float64(res.CutsDeduped), "cuts_deduped")
			if baseline > 0 {
				b.ReportMetric(float64(baseline)/float64(perOp), "speedup_vs_serial_cold")
			}
		})
		return res, perOp
	}
	serial, tSerial := run("serial-cold", benders.NestedOptions{Workers: 1, NoWarmStart: true}, 0)
	tuned, tTuned := run("warehouse-warm", benders.NestedOptions{Workers: runtime.GOMAXPROCS(0)}, tSerial)
	if serial == nil || tuned == nil {
		return // a sub-benchmark was filtered out; nothing to compare
	}
	if math.Abs(serial.Bound-tuned.Bound) > 1e-6*(1+math.Abs(serial.Bound)) {
		b.Fatalf("bounds diverged: serial-cold %.12g vs warehouse-warm %.12g", serial.Bound, tuned.Bound)
	}
	speedup := float64(tSerial) / float64(tTuned)
	if speedup < 3 {
		b.Fatalf("warehouse+warm path is only %.2fx faster than the serial cold baseline, acceptance needs >= 3x", speedup)
	}
}
