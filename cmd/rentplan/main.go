// Command rentplan solves a resource rental planning instance from the
// command line: a deterministic DRRP plan over a fixed horizon, a stochastic
// SRRP plan on a bid-adjusted scenario tree, or a full rolling-horizon
// execution of the stochastic policy against a realised trace.
//
// Examples:
//
//	rentplan -model drrp -class m1.xlarge -horizon 24
//	rentplan -model srrp -class c1.medium -stages 5 -bid 0.061 -days 60
//	rentplan -model nested -class c1.medium -stages 8 -branch 3 -saa 64 -reduce 16
//	rentplan -model exec -class c1.medium -horizon 48 -budget 50ms
//	rentplan -model fleet -class c1.medium -asps 100000 -shards 8 -epochs 12 -feedback 0.3
//	rentplan -spec instance.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"runtime/pprof"

	"rentplan/internal/benders"
	"rentplan/internal/core"
	"rentplan/internal/demand"
	"rentplan/internal/fleet"
	"rentplan/internal/market"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
	"rentplan/internal/spec"
	"rentplan/internal/stats"
)

func main() {
	var (
		model      = flag.String("model", "drrp", "planning model: drrp, srrp, nested (parallel nested L-shaped LP bound), exec (rolling-horizon execution), or fleet (sharded fleet simulation, each ASP's epoch settled from per-price-level tables)")
		class      = flag.String("class", "c1.medium", "VM class (c1.medium, m1.large, m1.xlarge, c1.xlarge)")
		horizon    = flag.Int("horizon", 24, "DRRP planning horizon in hours")
		demandMean = flag.Float64("demand-mean", 0.4, "hourly demand mean (GB)")
		demandSD   = flag.Float64("demand-sd", 0.2, "hourly demand std dev (GB)")
		seed       = flag.Int64("seed", 1, "random seed for demand and prices")
		epsilon    = flag.Float64("epsilon", 0, "initial storage amount ε (GB)")
		phi        = flag.Float64("phi", 0.5, "input-output ratio Φ")
		stages     = flag.Int("stages", 5, "SRRP future stages")
		branch     = flag.Int("branch", 4, "SRRP scenario-tree branch cap (0 = uncapped)")
		bid        = flag.Float64("bid", 0, "SRRP bid price (0 = historical mean)")
		days       = flag.Int("days", 60, "SRRP price history length in days")
		jsonOut    = flag.Bool("json", false, "emit the plan as JSON")
		specFile   = flag.String("spec", "", "solve a JSON instance file instead of using flags")
		workers    = flag.Int("workers", 0, "branch-and-bound workers for MILP solves (0 = all cores, 1 = serial)")
		verbose    = flag.Bool("verbose", false, "stream MILP solver progress (and exec degradations) to stderr")
		budget     = flag.Duration("budget", 0, "wall-clock budget per rolling re-solve in exec mode (0 = unlimited); arms the degradation ladder")
		saa        = flag.Int("saa", 0, "nested mode: replace the tree by an SAA fan of this many sampled price paths (0 = solve the full tree)")
		reduce     = flag.Int("reduce", 0, "nested mode: reduce the SAA fan to this many scenarios by transport-optimal backward reduction (0 = no reduction; requires -saa)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		asps       = flag.Int("asps", 1000, "fleet mode: ASP population size")
		shards     = flag.Int("shards", 4, "fleet mode: worker shards the population is partitioned across")
		epochs     = flag.Int("epochs", 8, "fleet mode: market epochs to simulate (each -horizon hours long)")
		feedback   = flag.Float64("feedback", 0, "fleet mode: demand/price feedback gain (0 = open loop)")
	)
	flag.Parse()

	if err := validateFlags(*model, *workers, *saa, *reduce, *horizon, *stages, *branch, *asps, *shards, *epochs, *feedback); err != nil {
		fmt.Fprintln(os.Stderr, "rentplan:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rentplan:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rentplan:", err)
			}
		}()
	}

	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		ins, err := spec.Parse(f)
		if err != nil {
			fatal(err)
		}
		res, err := ins.Solve()
		if err != nil {
			fatal(err)
		}
		emitJSON(res)
		return
	}

	par := core.DefaultParams(market.VMClass(*class))
	par.Phi = *phi
	par.Epsilon = *epsilon
	par.Solver.Workers = *workers
	if *verbose {
		par.Solver.Progress = printProgress
	}
	if _, err := par.OnDemandRate(); err != nil {
		fatal(err)
	}
	dem := demand.Series(demand.NewTruncNormal(*demandMean, *demandSD, *seed), maxInt(*horizon, *stages+1))

	switch *model {
	case "drrp":
		lambda, _ := par.OnDemandRate()
		prices := make([]float64, *horizon)
		for t := range prices {
			prices[t] = lambda
		}
		plan, err := core.SolveDRRP(par, prices, dem[:*horizon])
		if err != nil {
			fatal(err)
		}
		np, err := core.NoPlanCost(par, prices, dem[:*horizon])
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(map[string]interface{}{
				"model": "drrp", "class": *class, "plan": plan, "noPlanCost": np.Cost,
			})
			return
		}
		fmt.Printf("DRRP plan for %s over %dh (ε=%.2f GB)\n", *class, *horizon, *epsilon)
		fmt.Printf("%-4s %8s %8s %8s %6s\n", "slot", "demand", "alpha", "beta", "rent")
		for t := 0; t < *horizon; t++ {
			fmt.Printf("%-4d %8.3f %8.3f %8.3f %6v\n", t, dem[t], plan.Alpha[t], plan.Beta[t], plan.Chi[t])
		}
		fmt.Printf("\ntotal cost      : $%.3f\n", plan.Cost)
		fmt.Printf("  compute       : $%.3f\n", plan.Breakdown.Compute)
		fmt.Printf("  storage + I/O : $%.3f\n", plan.Breakdown.Holding)
		fmt.Printf("  transfer      : $%.3f\n", plan.Breakdown.Transfer())
		fmt.Printf("no-plan cost    : $%.3f  (saving %.1f%%)\n", np.Cost, 100*(1-plan.Cost/np.Cost))

	case "srrp":
		gen, err := market.NewGenerator(market.VMClass(*class), *seed)
		if err != nil {
			fatal(err)
		}
		tr := gen.Trace(*days)
		hourly, err := tr.Hourly(0, *days*24)
		if err != nil {
			fatal(err)
		}
		base := stats.NewDiscreteFromSamples(hourly, 1e-3)
		b := *bid
		if b <= 0 {
			b = base.Mean()
		}
		bids := make([]float64, *stages)
		for i := range bids {
			bids[i] = b
		}
		lambda, _ := par.OnDemandRate()
		tree, err := scenario.Build(base, bids, lambda, scenario.BuildConfig{
			Stages:    *stages,
			MaxBranch: *branch,
			RootPrice: hourly[len(hourly)-1],
		})
		if err != nil {
			fatal(err)
		}
		plan, err := core.SolveSRRP(par, tree, dem[:*stages+1])
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(map[string]interface{}{
				"model": "srrp", "class": *class, "bid": b,
				"expectedCost": plan.ExpCost, "rootRent": plan.RootRent,
				"rootAlpha": plan.RootAlpha, "treeVertices": tree.N(),
			})
			return
		}
		fmt.Printf("SRRP plan for %s: %d stages, bid $%.4f, tree %d vertices\n",
			*class, *stages, b, tree.N())
		for s := 1; s <= *stages; s++ {
			fmt.Printf("  stage %d: E[price]=$%.4f  P(out-of-bid)=%.2f\n",
				s, tree.ExpectedPrice(s), tree.OutOfBidProb(s))
		}
		fmt.Printf("expected cost   : $%.4f\n", plan.ExpCost)
		fmt.Printf("here-and-now    : rent=%v generate=%.3f GB\n", plan.RootRent, plan.RootAlpha)

	case "nested":
		gen, err := market.NewGenerator(market.VMClass(*class), *seed)
		if err != nil {
			fatal(err)
		}
		hourly, err := gen.Trace(*days).Hourly(0, *days*24)
		if err != nil {
			fatal(err)
		}
		base := stats.NewDiscreteFromSamples(hourly, 1e-3)
		b := *bid
		if b <= 0 {
			b = base.Mean()
		}
		bids := make([]float64, *stages)
		for i := range bids {
			bids[i] = b
		}
		lambda, _ := par.OnDemandRate()
		tree, err := scenario.Build(base, bids, lambda, scenario.BuildConfig{
			Stages:    *stages,
			MaxBranch: *branch,
			RootPrice: hourly[len(hourly)-1],
		})
		if err != nil {
			fatal(err)
		}
		transport := 0.0
		if *saa > 0 {
			fan, err := tree.SampleFan(*saa, rand.New(rand.NewSource(*seed)))
			if err != nil {
				fatal(err)
			}
			if *reduce > 0 {
				fan, transport, err = fan.Reduce(*reduce)
				if err != nil {
					fatal(err)
				}
			}
			if tree, err = fan.Tree(); err != nil {
				fatal(err)
			}
		}
		res, bound, err := core.SolveSRRPNestedLShaped(par, tree, dem[:*stages+1],
			benders.NestedOptions{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(map[string]interface{}{
				"model": "nested", "class": *class, "bid": b,
				"bound": bound, "converged": res.Converged,
				"iterations": res.Iterations, "cuts": res.Cuts,
				"cutsDeduped": res.CutsDeduped, "cutsEvicted": res.CutsEvicted,
				"vertexSolves": res.VertexSolves, "warmSolves": res.WarmSolves,
				"memoHits": res.MemoHits, "treeVertices": tree.N(),
				"transportBound": transport,
			})
			return
		}
		fmt.Printf("nested L-shaped LP bound for %s: %d stages, bid $%.4f, tree %d vertices\n",
			*class, *stages, b, tree.N())
		if *saa > 0 {
			fmt.Printf("SAA scenarios   : %d sampled", *saa)
			if *reduce > 0 {
				fmt.Printf(", reduced to %d (transport bound %.5f)", *reduce, transport)
			}
			fmt.Println()
		}
		fmt.Printf("lower bound     : $%.4f (converged=%v after %d sweeps)\n",
			bound, res.Converged, res.Iterations)
		fmt.Printf("cut warehouse   : %d stored, %d deduplicated, %d evicted\n",
			res.Cuts, res.CutsDeduped, res.CutsEvicted)
		fmt.Printf("vertex solves   : %d (%d warm-started, %d memo hits)\n",
			res.VertexSolves, res.WarmSolves, res.MemoHits)
		fmt.Printf("here-and-now    : rent=%v generate=%.3f GB\n",
			res.RootChi > 0.5, res.RootAlpha)

	case "exec":
		gen, err := market.NewGenerator(market.VMClass(*class), *seed)
		if err != nil {
			fatal(err)
		}
		hourly, err := gen.Trace(*days).Hourly(0, *days*24)
		if err != nil {
			fatal(err)
		}
		if *horizon <= 0 || *horizon >= len(hourly) {
			fatal(fmt.Errorf("exec horizon %d must lie inside the %dh trace", *horizon, len(hourly)))
		}
		hist := hourly[:len(hourly)-*horizon]
		eval := hourly[len(hourly)-*horizon:]
		base := stats.NewDiscreteFromSamples(hist, 1e-3)
		b := *bid
		if b <= 0 {
			b = base.Mean()
		}
		bids := make([]float64, *horizon)
		for i := range bids {
			bids[i] = b
		}
		execCfg := &core.ExecConfig{
			Par:        par,
			Actual:     eval,
			Demand:     dem[:*horizon],
			Base:       base,
			TreeStages: *stages,
			MaxBranch:  *branch,
			Budget:     *budget,
		}
		out, err := core.RunStochastic(execCfg, bids)
		if err != nil {
			fatal(err)
		}
		if *verbose {
			for _, d := range out.Degradations {
				fmt.Fprintf(os.Stderr, "rentplan: slot %d degraded to rung %s\n", d.Slot, d.Rung)
			}
		}
		if *jsonOut {
			emitJSON(map[string]interface{}{
				"model": "exec", "class": *class, "bid": b, "budget": budget.String(),
				"cost": out.Cost, "breakdown": out.Breakdown,
				"rentSlots": out.RentSlots, "outOfBidSlots": out.OutOfBidSlots,
				"replans": out.Replans, "degradations": out.Degradations,
			})
			return
		}
		fmt.Printf("rolling-horizon execution for %s over %dh (bid $%.4f, budget %v)\n",
			*class, *horizon, b, *budget)
		fmt.Printf("realised cost   : $%.4f\n", out.Cost)
		fmt.Printf("  compute       : $%.4f\n", out.Breakdown.Compute)
		fmt.Printf("  storage + I/O : $%.4f\n", out.Breakdown.Holding)
		fmt.Printf("  transfer      : $%.4f\n", out.Breakdown.Transfer())
		fmt.Printf("rented slots    : %d (%d out of bid)\n", out.RentSlots, out.OutOfBidSlots)
		fmt.Printf("replans         : %d\n", out.Replans)
		if n := len(out.Degradations); n > 0 {
			counts := map[core.DegradeRung]int{}
			for _, d := range out.Degradations {
				counts[d.Rung]++
			}
			fmt.Printf("degraded replans: %d (incumbent %d, dp %d, on-demand %d)\n",
				n, counts[core.RungIncumbent], counts[core.RungDP], counts[core.RungOnDemand])
		} else {
			fmt.Printf("degraded replans: 0\n")
		}

	case "fleet":
		pop, err := fleet.SamplePopulation(*asps, market.VMClass(*class), *seed)
		if err != nil {
			fatal(err)
		}
		fcfg := &fleet.Config{
			Class:      market.VMClass(*class),
			Population: pop,
			Shards:     *shards,
			Epochs:     *epochs,
			EpochHours: *horizon,
			Feedback:   *feedback,
			Seed:       *seed,
		}
		res, err := fleet.Run(fcfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(map[string]interface{}{
				"model": "fleet", "class": *class, "asps": *asps,
				"shards": *shards, "epochs": *epochs, "epochHours": *horizon,
				"feedback": *feedback, "totalCost": res.TotalCost,
				"demandGB": res.DemandGB, "finalBaseSpot": res.FinalBaseSpot,
				"slotsSimulated": res.SlotsSimulated, "wakes": res.Wakes,
				"solves": res.Solves, "epochReports": res.Epochs,
			})
			return
		}
		fmt.Printf("fleet simulation for %s: %d ASPs, %d shards, %d epochs of %dh (feedback gain %.2f)\n",
			*class, *asps, *shards, *epochs, *horizon, *feedback)
		fmt.Printf("%-6s %10s %10s %12s %10s\n", "epoch", "base $/h", "mean $/h", "spot slots", "wakes")
		for _, rep := range res.Epochs {
			fmt.Printf("%-6d %10.4f %10.4f %12d %10d\n",
				rep.Epoch, rep.BaseSpot, rep.MeanPrice, rep.SpotSlots, rep.Wakes)
		}
		fmt.Printf("\ntotal cost      : $%.2f\n", res.TotalCost)
		fmt.Printf("demand served   : %.1f GB\n", res.DemandGB)
		fmt.Printf("final base spot : $%.4f/h\n", res.FinalBaseSpot)
		fmt.Printf("ASP-slots       : %d (%d wakes, %.2f%% of slots)\n",
			res.SlotsSimulated, res.Wakes, 100*float64(res.Wakes)/float64(res.SlotsSimulated))

	default:
		fatal(fmt.Errorf("unknown model %q (want drrp, srrp, nested, exec, or fleet)", *model))
	}
}

// printProgress streams one MILP solver snapshot per callback to stderr,
// including the warm-start dispatch counts (hit/miss/dual/fallback), the
// mean simplex iterations per warm-started versus cold-started node, the
// sparse-pricing counters (full pricing sweeps, candidate-list hits, and the
// constraint-matrix nonzero count), and the dual-simplex/eta-file counters
// (dual pivots, eta updates, basis refactorisations).
func printProgress(st mip.Stats) {
	inc := "-"
	if st.HasIncumbent {
		inc = fmt.Sprintf("%.6g", st.Incumbent)
	}
	warmNodes := st.WarmHits + st.WarmMisses + st.WarmDuals + st.WarmFallbacks
	fmt.Fprintf(os.Stderr,
		"rentplan: mip %7.3fs %8d nodes (%6.0f/s) open %-6d iters %-8d inc %-12s bound %-12.6g gap %-9.3g warm %d/%d/%d/%d it/node %s warm, %s cold sweeps %-8d cand %-8d nnz %d dual %-8d etas %-8d refac %d\n",
		st.Elapsed.Seconds(), st.Nodes, st.NodesPerSec, st.OpenNodes,
		st.SimplexIters, inc, st.Bound, st.Gap,
		st.WarmHits, st.WarmMisses, st.WarmDuals, st.WarmFallbacks,
		perNode(st.WarmIters, warmNodes), perNode(st.ColdIters, st.ColdNodes),
		st.PricingSweeps, st.CandidateHits, st.NNZ,
		st.DualIters, st.EtaCount, st.Refactorizations)
}

// perNode formats a mean iteration count per node, or "-" when no node of
// that class has been solved yet.
func perNode(iters, nodes int64) string {
	if nodes == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(iters)/float64(nodes))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func emitJSON(v interface{}) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// validateFlags rejects nonsensical flag combinations before any work is
// done. Usage errors exit 2 (distinct from runtime failures, which exit 1),
// so scripts can tell a mistyped invocation from a failed solve.
func validateFlags(model string, workers, saa, reduce, horizon, stages, branch, asps, shards, epochs int, feedback float64) error {
	if workers < 0 {
		return fmt.Errorf("-workers %d must be >= 0 (0 = all cores)", workers)
	}
	if asps <= 0 {
		return fmt.Errorf("-asps %d must be > 0", asps)
	}
	if shards <= 0 {
		return fmt.Errorf("-shards %d must be > 0", shards)
	}
	if epochs <= 0 {
		return fmt.Errorf("-epochs %d must be > 0", epochs)
	}
	if feedback < 0 || math.IsNaN(feedback) || math.IsInf(feedback, 0) {
		return fmt.Errorf("-feedback %v must be a finite non-negative gain", feedback)
	}
	if feedback > 0 && model != "fleet" {
		return fmt.Errorf("-feedback only applies to -model fleet, not %q", model)
	}
	if saa < 0 {
		return fmt.Errorf("-saa %d must be >= 0 (0 = solve the full tree)", saa)
	}
	if reduce < 0 {
		return fmt.Errorf("-reduce %d must be >= 0 (0 = no reduction)", reduce)
	}
	if reduce > 0 && saa == 0 {
		return fmt.Errorf("-reduce %d requires -saa", reduce)
	}
	if reduce > saa {
		return fmt.Errorf("-reduce %d exceeds the -saa %d fan it reduces", reduce, saa)
	}
	if saa > 0 && model != "nested" {
		return fmt.Errorf("-saa only applies to -model nested, not %q", model)
	}
	if horizon <= 0 {
		return fmt.Errorf("-horizon %d must be > 0", horizon)
	}
	if stages < 0 {
		return fmt.Errorf("-stages %d must be >= 0", stages)
	}
	if branch < 0 {
		return fmt.Errorf("-branch %d must be >= 0 (0 = uncapped)", branch)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rentplan:", err)
	os.Exit(1)
}
