package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"rentplan/internal/benders"
	"rentplan/internal/core"
	"rentplan/internal/demand"
	"rentplan/internal/market"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

// nestedTol is the relative tolerance of the nested bound check.
const nestedTol = 1e-6

// nestedInstance is one SRRP tree with a demand profile and the result of
// its serial cold reference solve.
type nestedInstance struct {
	tree *scenario.Tree
	dem  []float64
	ref  *benders.NestedResult
	// refBound is ref's bound as core reports it (transfer-out included),
	// the figure a converged solve must match.
	refBound float64
}

// nestedVerdict classifies one nested solve.
type nestedVerdict int

const (
	nestedConverged   nestedVerdict = iota // bound matches the reference
	nestedUnconverged                      // stopped at the sweep cap with a valid bracket
	nestedFailed                           // error, or a bound the reference contradicts
)

// nestedSolve is one solve of the workload and its verdict.
type nestedSolve struct {
	res     *benders.NestedResult
	dur     time.Duration
	verdict nestedVerdict
}

func runNested(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	stages, branch, nTrees, nProfiles := 8, 3, int64(8), 4
	if cfg.smoke {
		stages, nTrees, nProfiles = 5, 1, 2
	}
	const class = market.C1Medium
	par := core.DefaultParams(class)
	lambda, err := par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	// Eight markets give eight trees (same shape, different prices and
	// probabilities), each solved for four demand profiles, so one seed's
	// markets do not set the whole run.
	var builds []func() (*scenario.Tree, error)
	for m := int64(0); m < nTrees; m++ {
		gen, err := market.NewGenerator(class, cfg.seed*nTrees+m)
		if err != nil {
			return nil, err
		}
		hist, err := gen.Trace(7).Hourly(0, 168)
		if err != nil {
			return nil, err
		}
		baseDist := stats.NewDiscreteFromSamples(hist, baseResolution)
		sorted := append([]float64(nil), hist...)
		sort.Float64s(sorted)
		bid := sorted[len(sorted)*4/5] // ~20% of history lies above the bid
		builds = append(builds, func() (*scenario.Tree, error) {
			return scenario.Build(baseDist, constants(stages, bid), lambda, scenario.BuildConfig{
				Stages: stages, MaxBranch: branch, RootPrice: hist[len(hist)-1],
			})
		})
	}
	buildAll := func() ([]*scenario.Tree, error) {
		var trees []*scenario.Tree
		for _, b := range builds {
			tr, err := b()
			if err != nil {
				return nil, err
			}
			trees = append(trees, tr)
		}
		return trees, nil
	}
	// setup_s: building the trees, median of 9.
	setupS, trees, err := medianSetup(9, buildAll)
	if err != nil {
		return nil, err
	}
	o.provenance["nested"] = fmt.Sprintf("stages=%d branch=%d vertices=%d trees=%d profiles=%d demand=TruncNormal(0.4,0.2) workers=default",
		stages, branch, trees[0].N(), len(trees), nProfiles)

	// The paper's demand model, as the repo's experiments and its nested
	// Benders benchmark draw it.
	var insts []*nestedInstance
	for i, tree := range trees {
		for p := 0; p < nProfiles; p++ {
			seed := (cfg.seed*nTrees+int64(i))*int64(nProfiles) + int64(p)
			insts = append(insts, &nestedInstance{tree: tree, dem: demand.Series(demand.NewTruncNormal(0.4, 0.2, seed), stages+1)})
		}
	}
	// Reference solves: serial, warm starts off, untimed, spread over nproc
	// goroutines.
	if err := forEach(len(insts), func(i int) error {
		inst := insts[i]
		ref, bound, err := core.SolveSRRPNestedLShaped(par, inst.tree, inst.dem, benders.NestedOptions{Workers: 1, NoWarmStart: true})
		if err != nil {
			return fmt.Errorf("reference solve %d: %w", i, err)
		}
		if !ref.Converged {
			return fmt.Errorf("reference solve %d stopped unconverged after %d sweeps", i, ref.Iterations)
		}
		inst.ref, inst.refBound = ref, bound
		return nil
	}); err != nil {
		return nil, err
	}

	// solve runs one solve with default options and checks it. A converged
	// bound must match the reference; a solve that stops at the sweep cap
	// must still bracket the reference optimum (Bound below it, Cost above
	// it), and then counts as answered but not on the full rung.
	solve := func(inst *nestedInstance) nestedSolve {
		t0 := time.Now()
		res, bound, err := core.SolveSRRPNestedLShaped(par, inst.tree, inst.dem, benders.NestedOptions{})
		s := nestedSolve{res: res, dur: time.Since(t0)}
		o.attempted++
		opt, slack := inst.ref.Bound, nestedTol*(1+inst.ref.Bound)
		switch {
		case err != nil:
			s.verdict = nestedFailed
			o.wrong = append(o.wrong, fmt.Sprintf("solve %d: %v", o.attempted, err))
		case res.Converged && relErr(bound, inst.refBound) > nestedTol:
			s.verdict = nestedFailed
			o.wrong = append(o.wrong, fmt.Sprintf("solve %d: bound %v, serial cold reference %v", o.attempted, bound, inst.refBound))
		case res.Converged:
			s.verdict = nestedConverged
		case res.Bound > opt+slack || res.Cost < opt-slack:
			s.verdict = nestedFailed
			o.wrong = append(o.wrong, fmt.Sprintf("solve %d: unconverged bracket [%v, %v] excludes the reference optimum %v", o.attempted, res.Bound, res.Cost, opt))
		default:
			s.verdict = nestedUnconverged
		}
		if s.verdict == nestedFailed {
			o.failed++
		}
		return s
	}

	if cfg.trace {
		return o, traceNested(cfg, o, builds, insts, solve)
	}
	// Timed: whole cycles over every instance until the measured seconds
	// are spent. Each cycle solves the same set, so the throughput is the
	// median over cycles of converged solves per second of cycle wall time.
	var solveMS, rates []float64
	converged, unconverged := 0, 0
	start := time.Now()
	for len(rates) < 2 || time.Since(start).Seconds() < cfg.seconds {
		conv, t0 := 0, time.Now()
		for _, inst := range insts {
			s := solve(inst)
			solveMS = append(solveMS, ms(s.dur))
			switch s.verdict {
			case nestedConverged:
				conv++
			case nestedUnconverged:
				unconverged++
			}
		}
		converged += conv
		rates = append(rates, float64(conv)/time.Since(t0).Seconds())
	}
	answered := o.attempted - o.failed
	o.note("nested: %d solves in %d cycles of %d instances; %d converged, %d stopped unconverged at the sweep cap", o.attempted, len(rates), len(insts), converged, unconverged)
	o.add("setup_s", setupS, "s", fmt.Sprintf("(%d scenario trees of %d vertices, median of 9 builds)", len(trees), trees[0].N()))
	o.add("plan_p50_ms", quantile(append([]float64(nil), solveMS...), 0.5), "ms", fmt.Sprintf("(one nested solve; of %d)", len(solveMS)))
	o.add("throughput_per_s", median(rates), "1/s", fmt.Sprintf("(nested_solves_per_s: converged solves per second, median over %d cycles of %d solves)", len(rates), len(insts)))
	o.add("answered_share", ratio(float64(answered), float64(o.attempted)), "ratio", fmt.Sprintf("(of %d solves; failed_share = 1 - this)", o.attempted))
	o.add("full_rung_share", ratio(float64(converged), float64(answered)), "ratio", fmt.Sprintf("(converged to the default gap, of %d answered solves)", answered))
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	o.add("peak_rss_mb", rss, "MiB", "(benchmark process VmHWM)")
	return o, nil
}

// forEach calls f(0..n-1) on nproc goroutines and returns the first error.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceNested times the tree builds and one solve of every instance under
// spans and reads the benders counters of each solve's NestedResult.
func traceNested(cfg runConfig, o *outcome, builds []func() (*scenario.Tree, error), insts []*nestedInstance,
	solve func(*nestedInstance) nestedSolve) error {
	rec := newRecorder()
	var vertices []float64
	for i, build := range builds {
		s := rec.begin("scenario.Build", -1, i)
		tree, err := build()
		rec.end(s)
		if err != nil {
			return err
		}
		vertices = append(vertices, float64(tree.N()))
	}
	o.layer("scenario.build_us", rec.medianUS("scenario.Build"), fmt.Sprintf("(median of %d builds)", len(builds)))
	o.layer("scenario.builds", float64(len(builds)), "(one tree per market)")
	o.layer("scenario.vertices_p50", median(vertices), fmt.Sprintf("(of %d trees)", len(builds)))

	var vs, it, cuts, dd, ev, warm, memo float64
	unconverged := 0
	for i, inst := range insts {
		s := rec.begin("core.SolveSRRPNestedLShaped", -1, i)
		res := solve(inst)
		rec.end(s)
		if res.verdict == nestedUnconverged {
			unconverged++
		}
		if res.res == nil {
			continue
		}
		vs += float64(res.res.VertexSolves)
		it += float64(res.res.Iterations)
		cuts += float64(res.res.Cuts)
		dd += float64(res.res.CutsDeduped)
		ev += float64(res.res.CutsEvicted)
		warm += float64(res.res.WarmSolves)
		memo += float64(res.res.MemoHits)
	}
	n := float64(len(insts))
	per := fmt.Sprintf("(per solve, mean of %d)", len(insts))
	o.layer("benders.vertex_solves", vs/n, per)
	o.layer("benders.iterations", it/n, per)
	o.layer("benders.cuts", cuts/n, per)
	o.layer("benders.cuts_deduped", dd/n, per)
	o.layer("benders.cuts_evicted", ev/n, per)
	o.layer("benders.warm_share", ratio(warm, vs), fmt.Sprintf("(of %.0f vertex solves)", vs))
	o.layer("benders.memo_hit_ratio", ratio(memo, memo+vs), fmt.Sprintf("(of %.0f vertex evaluations)", memo+vs))
	o.note("trace: %d nested solves (%d stopped unconverged at the sweep cap), median %.3f ms each; lp counters are not exposed by benders.NestedResult",
		len(insts), unconverged, rec.medianMS("core.SolveSRRPNestedLShaped"))
	path, err := rec.write(cfg.out+"/traces", fmt.Sprintf("nested-seed%d.jsonl", cfg.seed))
	if err != nil {
		return err
	}
	o.note("trace: %d spans written to %s", len(rec.spans), path)
	return nil
}
