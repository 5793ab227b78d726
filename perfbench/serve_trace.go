package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rentplan/internal/core"
	"rentplan/internal/lotsize"
	"rentplan/internal/lp"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
	"rentplan/internal/serve"
)

// traceReplayLimit bounds how many low-rate requests the traced replay
// times, so a traced run stays within the run length; the warm-up and the
// saturation requests before them are replayed untimed to bring the
// in-process daemon to the same state.
func traceReplayLimit(sh serveShape) int {
	if sh.milp {
		return 400
	}
	return 2000
}

// replayState is the solver-side state the traced replay keeps so that it
// repeats exactly the work the daemon reported: the trees a cache hit
// reused, the root bases a warm start reused. Tenant bases are keyed by
// tenant name, as the daemon keys them, so a re-joined tenant's first
// re-plan warm-starts from the basis its name kept.
type replayState struct {
	trees       map[srrpKey]*scenario.Tree
	srrpBasis   map[srrpKey]*lp.Basis
	tenantBasis map[string]*lp.Basis
	vertices    []float64
	mipStats    []mip.Stats
	mipAllocs   uint64
	solverTime  time.Duration // top-level solver calls, the part of ServeHTTP they stand for
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// traceLayers reads the daemon's counters over the timed phases and
// replays the run in process, serially and traced, to attribute time to
// layers.
func (r *serveRun) traceLayers(cfg runConfig, o *outcome) error {
	sh, m := r.sh, r.metrics
	hits, misses := m.sum("rentpland_tree_cache_hits_total"), m.sum("rentpland_tree_cache_misses_total")
	o.layer("serve.tree_cache_hit_ratio", ratio(hits, hits+misses), fmt.Sprintf("(of %.0f srrp tree lookups)", hits+misses))
	steps, reuse := m.sum("rentpland_plans_total", `model="step"`), m.sum("rentpland_plan_reuse_total")
	o.layer("serve.plan_reuse_ratio", ratio(reuse, steps), fmt.Sprintf("(of %.0f step answers)", steps))
	srrpSolves, freshSteps := 0.0, 0.0
	if sh.milp {
		srrpSolves, freshSteps = m.sum("rentpland_plans_total", `model="srrp"`), steps-reuse
	}
	warmCache, warmTenant := m.sum("rentpland_warm_root_total", `source="cache"`), m.sum("rentpland_warm_root_total", `source="tenant"`)
	o.layer("serve.warm_root_ratio.cache", ratio(warmCache, srrpSolves), fmt.Sprintf("(of %.0f capacitated srrp solves)", srrpSolves))
	o.layer("serve.warm_root_ratio.tenant", ratio(warmTenant, freshSteps), fmt.Sprintf("(of %.0f capacitated step solves)", freshSteps))
	requests := m.sum("rentpland_requests_total")
	o.layer("serve.rejected", m.sum("rentpland_queue_rejections_total"), fmt.Sprintf("(of %.0f requests)", requests))
	o.layer("serve.errors", requests-m.sum("rentpland_requests_total", `code="200"`), fmt.Sprintf("(of %.0f requests)", requests))
	o.layer("serve.tenants", r.health["tenants"], "(from /v1/healthz at the end)")
	o.layer("serve.cached_trees", r.health["cachedTrees"], "(from /v1/healthz at the end)")
	o.layer("serve.server_p50_ms", serverP50MS(m), "(rentpland_request_seconds, bucket-interpolated)")
	plans := m.sum("rentpland_plans_total")
	for _, rung := range []core.DegradeRung{core.RungFull, core.RungIncumbent, core.RungDP, core.RungOnDemand} {
		o.layer("core.rung."+rung.String(), m.sum("rentpland_plans_total", `rung="`+rung.String()+`"`), fmt.Sprintf("(of %.0f plans)", plans))
	}
	o.layer("loadgen.plan_p99_ms", r.low.p99, fmt.Sprintf("(median of the p99s of %d-request windows of the %d low-rate requests)", 1000, r.low.n))
	o.layer("loadgen.max_rate_rps", r.maxRate, fmt.Sprintf("(achieved rate of the highest passing ladder rung; p99 <= %.0f ms, lateness growth <= %.0f ms)", limitMS, growthMS))
	o.layer("loadgen.late_p99_ms", r.low.lateP99, fmt.Sprintf("(of %d low-rate sends)", r.low.n))
	// The daemon's own solver counters: what it did, not what the replay
	// repeats.
	var daemonMIP []string
	for _, c := range []string{"rentpland_mip_nodes_total", "rentpland_mip_warm_nodes_total", "rentpland_mip_cold_nodes_total", "rentpland_simplex_iterations_total"} {
		v := m.sum(c)
		daemonMIP = append(daemonMIP, fmt.Sprintf("%s %.0f", c, v))
		if !sh.milp && v != 0 {
			o.wrong = append(o.wrong, fmt.Sprintf("design check: %s moved by %.0f on %s, whose requests are all uncapacitated", c, v, sh.name))
		}
	}
	o.note("daemon: %s over the timed phases", strings.Join(daemonMIP, ", "))
	if sh.milp && warmCache+warmTenant == 0 {
		o.wrong = append(o.wrong, fmt.Sprintf("design check: no warm root on %s", sh.name))
	}

	// The replay: an in-process daemon with the same configuration, brought
	// to the daemon's state by the untimed warm-up, then the timed requests
	// one at a time in sequence order, the first low-rate ones traced.
	srv := serve.New(serve.Config{Workers: runtime.NumCPU(), DefaultBudget: daemonBudget})
	post := func(j *job) error {
		body, err := json.Marshal(j.request(sh, j.inv))
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replayed request %d: HTTP %d %s", j.seq, rec.Code, rec.Body.String())
		}
		return nil
	}
	st := &replayState{trees: map[srrpKey]*scenario.Tree{}, srrpBasis: map[srrpKey]*lp.Basis{}, tenantBasis: map[string]*lp.Basis{}}
	// skip replays a request untimed, solver calls included so trees and
	// root bases are in place, and keeps it out of the layer statistics.
	untraced := newRecorder()
	skip := func(j *job) error {
		nv, nm, na := len(st.vertices), len(st.mipStats), st.mipAllocs
		if err := post(j); err != nil {
			return err
		}
		err := st.replay(sh, untraced, -1, j)
		untraced.spans = untraced.spans[:0]
		st.vertices, st.mipStats, st.mipAllocs = st.vertices[:nv], st.mipStats[:nm], na
		return err
	}
	for _, j := range r.warm {
		if j.ok() {
			if err := skip(j); err != nil {
				return err
			}
		}
	}
	rec := newRecorder()
	var self []float64
	var serveAllocs uint64
	var wall time.Duration
	traced := 0
	for _, j := range r.timed {
		if traced == traceReplayLimit(sh) {
			break
		}
		if !j.ok() {
			continue
		}
		if j.phase != 1 {
			// A saturation request between low-rate segments: replayed
			// untimed so the in-process daemon keeps the daemon's state.
			if err := skip(j); err != nil {
				return err
			}
			continue
		}
		traced++
		root := rec.begin("request", -1, j.seq)
		a0 := mallocs()
		s := rec.begin("serve.ServeHTTP", root, j.seq)
		if err := post(j); err != nil {
			return err
		}
		serveDur := rec.end(s)
		serveAllocs += mallocs() - a0
		before := st.solverTime
		if err := st.replay(sh, rec, root, j); err != nil {
			return err
		}
		self = append(self, us(serveDur-(st.solverTime-before)))
		wall += rec.end(root)
	}

	n := float64(traced)
	o.layer("serve.self_us", median(self), fmt.Sprintf("(ServeHTTP minus replayed solver calls, median of %d requests)", traced))
	o.layer("serve.allocs_per_req", ratio(float64(serveAllocs), n), fmt.Sprintf("(of %d ServeHTTP calls)", traced))
	builds := rec.durations("scenario.Build")
	o.layer("scenario.build_us", rec.medianUS("scenario.Build"), fmt.Sprintf("(median of %d builds)", len(builds)))
	o.layer("scenario.builds", float64(len(builds)), fmt.Sprintf("(over %d replayed requests)", traced))
	o.layer("scenario.vertices_p50", median(st.vertices), fmt.Sprintf("(of %d trees)", len(st.vertices)))
	o.layer("core.step_us", rec.medianUS("core.PlanStochasticStepCtx"), fmt.Sprintf("(median of %d re-plans)", len(rec.durations("core.PlanStochasticStepCtx"))))
	o.layer("core.milp_build_us", rec.medianUS("core.BuildSRRPMILP"), fmt.Sprintf("(median of %d builds)", len(rec.durations("core.BuildSRRPMILP"))))
	o.layer("lotsize.tree_dp_us", rec.medianUS("lotsize.SolveTree"), fmt.Sprintf("(median of %d solves)", len(rec.durations("lotsize.SolveTree"))))
	layersFromMIP(o, rec, st.mipStats, st.mipAllocs)

	// Design checks: the share of replayed solver-component time spent in
	// mip.SolveCtx, which runs every lp solve of a plan. The lp.* root
	// probes repeat work the daemon did not do and stay out.
	comp, solver := 0.0, 0.0
	for _, name := range []string{"scenario.Build", "lotsize.SolveTree", "core.BuildSRRPMILP", "mip.SolveCtx"} {
		d := 0.0
		for _, x := range rec.durations(name) {
			d += ms(x)
		}
		comp += d
		if name == "mip.SolveCtx" {
			solver += d
		}
	}
	share := ratio(solver, comp)
	o.note("trace: replayed %d low-rate requests serially in %.3f s (%.1f us per request, daemon p50 %.3f ms untraced)",
		traced, wall.Seconds(), us(wall)/n, r.low.p50)
	o.note("trace: mip+lp share of replayed solver-component time %.3f (of %.1f ms)", share, comp)
	switch {
	case !sh.milp && (len(st.mipStats) > 0 || len(rec.durations("lp.SolveWithOptions"))+len(rec.durations("lp.SolveFrom")) > 0):
		o.wrong = append(o.wrong, fmt.Sprintf("design check: the replay of %s ran mip or lp", sh.name))
	case sh.milp && share <= 0.5:
		o.wrong = append(o.wrong, fmt.Sprintf("design check: mip+lp carry only %.3f of the replayed solver time on %s", share, sh.name))
	}
	path, err := rec.write(filepath.Join(cfg.out, "traces"), fmt.Sprintf("%s-seed%d.jsonl", sh.name, cfg.seed))
	if err != nil {
		return err
	}
	o.note("trace: %d spans written to %s", len(rec.spans), path)
	return nil
}

// daemonParams are a request's model parameters as rentpland builds them.
func daemonParams(sh serveShape, j *job) core.Params {
	par := core.DefaultParams(j.t.c.class)
	if sh.milp {
		par.Capacity, par.ConsumptionRate = j.t.capacity, 1
		if j.srrp {
			par.Capacity = j.t.c.joins[j.t.stages].capacity
		}
	}
	return par
}

// treeProblem is the lot-sizing tree the exact DP solves for an
// uncapacitated SRRP instance (the construction of core.SolveSRRPCtx).
func treeProblem(par core.Params, tree *scenario.Tree, dem []float64) *lotsize.TreeProblem {
	n := tree.N()
	tp := &lotsize.TreeProblem{
		Parent: tree.Parent, Prob: tree.Prob, Setup: tree.Price,
		Unit: constants(n, par.UnitGenCost()), Hold: constants(n, par.HoldingCost()),
		Demand: make([]float64, n), InitialInventory: par.Epsilon,
	}
	for v := 0; v < n; v++ {
		tp.Demand[v] = dem[tree.Stage[v]]
	}
	return tp
}

// replay repeats, traced, the solver work the daemon reported for job j:
// tree builds on cache misses, the DP or the MILP, and rolling re-plans
// except where the answer reused the tenant's plan.
func (st *replayState) replay(sh serveShape, rec *recorder, root int, j *job) error {
	t, c := j.t, j.t.c
	par := daemonParams(sh, j)
	lambda, err := par.OnDemandRate()
	if err != nil {
		return err
	}
	price := c.price(j.round)
	if j.srrp {
		key := srrpKey{c.id, t.stages, j.round}
		tree := st.trees[key]
		if !j.ans.CacheHit || tree == nil {
			s := rec.begin("scenario.Build", root, j.seq)
			tree, err = scenario.Build(c.base, constants(t.stages, c.bid), lambda, scenario.BuildConfig{
				Stages: t.stages, MaxBranch: maxBranch, RootPrice: price,
			})
			st.solverTime += rec.end(s)
			if err != nil {
				return err
			}
			st.trees[key] = tree
			st.vertices = append(st.vertices, float64(tree.N()))
		}
		var basis *lp.Basis
		if j.ans.WarmRoot {
			basis = st.srrpBasis[key]
		}
		b, err := st.solve(sh, rec, root, j.seq, par, tree, c.joins[t.stages].demand, basis, true)
		if err == nil && st.srrpBasis[key] == nil && b != nil {
			st.srrpBasis[key] = b
		}
		return err
	}
	if j.ans.PlanReuse {
		return nil // served from the tenant's plan: no solver work
	}
	T := len(t.demand)
	stages := t.stages
	if j.slot+stages >= T {
		stages = T - 1 - j.slot
	}
	var basis *lp.Basis
	if j.ans.WarmRoot {
		basis = st.tenantBasis[t.name]
	}
	bids := constants(T, c.bid)
	cfg := &core.ExecConfig{
		Par: par, Actual: constants(T, price), Demand: t.demand, Base: c.base,
		TreeStages: t.stages, MaxBranch: maxBranch, Replan: 2, Budget: daemonBudget,
	}
	cfg.Par.Solver.RootBasis = basis
	s := rec.begin("core.PlanStochasticStepCtx", root, j.seq)
	plan, _, err := core.PlanStochasticStepCtx(context.Background(), cfg, bids, j.slot, j.inv)
	st.solverTime += rec.end(s)
	if err != nil {
		return err
	}
	if plan != nil && plan.RootBasis != nil {
		st.tenantBasis[t.name] = plan.RootBasis
	}

	// The same re-plan again, call by call, for per-layer attribution; its
	// time is already counted by the PlanStochasticStepCtx span.
	comp := rec.begin("replay.step", root, j.seq)
	s = rec.begin("scenario.Build", comp, j.seq)
	tree, err := scenario.Build(c.base, bids[j.slot+1:j.slot+stages+1], lambda, scenario.BuildConfig{
		Stages: stages, MaxBranch: maxBranch, RootPrice: price,
	})
	rec.end(s)
	if err != nil {
		return err
	}
	st.vertices = append(st.vertices, float64(tree.N()))
	par.Epsilon = j.inv
	_, err = st.solve(sh, rec, comp, j.seq, par, tree, t.demand[j.slot:j.slot+stages+1], basis, false)
	rec.end(comp)
	return err
}

// solve runs the DP or the MILP of one instance under spans and returns
// the MILP root basis. counted adds the calls to the solver time that
// ServeHTTP's self time is net of.
func (st *replayState) solve(sh serveShape, rec *recorder, parent, req int, par core.Params, tree *scenario.Tree, dem []float64, basis *lp.Basis, counted bool) (*lp.Basis, error) {
	add := func(d time.Duration) {
		if counted {
			st.solverTime += d
		}
	}
	if !sh.milp {
		tp := treeProblem(par, tree, dem)
		s := rec.begin("lotsize.SolveTree", parent, req)
		_, err := lotsize.SolveTree(tp)
		add(rec.end(s))
		return nil, err
	}
	s := rec.begin("core.BuildSRRPMILP", parent, req)
	prob, _, err := core.BuildSRRPMILP(par, tree, dem)
	add(rec.end(s))
	if err != nil {
		return nil, err
	}
	// The root relaxation alone, cold or from the reused basis: the lp
	// layer's share of a warm start. Not part of the daemon's work.
	if basis != nil {
		s = rec.begin("lp.SolveFrom", parent, req)
		_, err = lp.SolveFrom(prob.LP, basis, lp.Options{})
	} else {
		s = rec.begin("lp.SolveWithOptions", parent, req)
		_, err = lp.SolveWithOptions(prob.LP, lp.Options{})
	}
	rec.end(s)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), daemonBudget)
	defer cancel()
	a0 := mallocs()
	s = rec.begin("mip.SolveCtx", parent, req)
	sol, err := mip.SolveCtx(ctx, prob, mip.Options{RootBasis: basis})
	add(rec.end(s))
	st.mipAllocs += mallocs() - a0
	if err != nil {
		return nil, err
	}
	st.mipStats = append(st.mipStats, sol.Stats)
	return sol.RootBasis, nil
}

// layersFromMIP turns the replay's mip.Stats into the mip and lp metrics.
func layersFromMIP(o *outcome, rec *recorder, stats []mip.Stats, allocs uint64) {
	var nodes, iters, warmHits, warmMiss, warmDual, warmFall, warmIters, coldNodes, coldIters, cand, eta, refac float64
	for _, s := range stats {
		nodes += float64(s.Nodes)
		iters += float64(s.SimplexIters)
		warmHits += float64(s.WarmHits)
		warmMiss += float64(s.WarmMisses)
		warmDual += float64(s.WarmDuals)
		warmFall += float64(s.WarmFallbacks)
		warmIters += float64(s.WarmIters)
		coldNodes += float64(s.ColdNodes)
		coldIters += float64(s.ColdIters)
		cand += float64(s.CandidateHits)
		eta += float64(s.EtaCount)
		refac += float64(s.Refactorizations)
	}
	solves := float64(len(stats))
	warm := warmHits + warmMiss + warmDual + warmFall
	var solveMS []float64
	for _, d := range rec.durations("mip.SolveCtx") {
		solveMS = append(solveMS, ms(d))
	}
	o.layer("mip.solve_ms_p50", quantile(append([]float64(nil), solveMS...), 0.5), fmt.Sprintf("(of %d solves)", len(solveMS)))
	p99, about := tail(solveMS, "solves")
	o.layer("mip.solve_ms_p99", p99, about)
	o.layer("mip.nodes_per_solve", ratio(nodes, solves), fmt.Sprintf("(of %.0f solves)", solves))
	o.layer("mip.iters_per_node", ratio(iters, nodes), fmt.Sprintf("(of %.0f nodes)", nodes))
	o.layer("mip.allocs_per_solve", ratio(float64(allocs), solves), fmt.Sprintf("(of %.0f solves)", solves))
	o.layer("mip.warm_fallback_share", ratio(warmFall, warm), fmt.Sprintf("(of %.0f warm attempts)", warm))
	o.layer("mip.warm_dual_share", ratio(warmDual, warm), fmt.Sprintf("(of %.0f warm attempts)", warm))
	o.layer("lp.root_cold_ms", rec.medianMS("lp.SolveWithOptions"), fmt.Sprintf("(median of %d root solves)", len(rec.durations("lp.SolveWithOptions"))))
	o.layer("lp.root_warm_ms", rec.medianMS("lp.SolveFrom"), fmt.Sprintf("(median of %d root solves from a reused basis)", len(rec.durations("lp.SolveFrom"))))
	o.layer("lp.refactor_per_node", ratio(refac, nodes), fmt.Sprintf("(of %.0f nodes)", nodes))
	o.layer("lp.eta_per_node", ratio(eta, nodes), fmt.Sprintf("(of %.0f nodes)", nodes))
	o.layer("lp.candidate_hit_ratio", ratio(cand, iters), fmt.Sprintf("(of %.0f pivots)", iters))
	o.layer("lp.cold_iters_per_cold_node", ratio(coldIters, coldNodes), fmt.Sprintf("(of %.0f cold nodes)", coldNodes))
	o.layer("lp.warm_iters_per_warm_node", ratio(warmIters, warm), fmt.Sprintf("(of %.0f warm nodes)", warm))
}
