// Package serve implements rentpland, the multi-tenant planning daemon:
// an HTTP/JSON front end that maps plan requests onto the core planning
// entry points through a bounded solver worker pool with admission control,
// a cross-tenant scenario-tree cache, and per-tenant warm-starting of
// rolling replans. See DESIGN.md §13 for the architecture.
//
// Endpoints:
//
//	POST /v1/plan    — solve one PlanRequest (drrp, srrp, or step)
//	GET  /v1/healthz — liveness plus queue/cache/tenant gauges
//	GET  /v1/metrics — Prometheus text exposition
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"rentplan/internal/core"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
	"rentplan/internal/serve/metrics"
	"rentplan/internal/stats"
)

// Config tunes the daemon.
type Config struct {
	// Workers is the solver pool size; ≤0 selects GOMAXPROCS.
	Workers int
	// Queue caps admitted (running + waiting) requests; a full queue
	// rejects new arrivals with 429. ≤0 selects 4×Workers.
	Queue int
	// DefaultBudget is the per-request solve budget applied when a request
	// does not set budgetMs; 0 means no budget (and no degradation ladder)
	// by default.
	DefaultBudget time.Duration
	// MaxBudget clamps request-supplied budgets; ≤0 selects 5s.
	MaxBudget time.Duration
	// CacheTrees caps the scenario-tree cache; ≤0 selects 256.
	CacheTrees int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 5 * time.Second
	}
	if c.CacheTrees <= 0 {
		c.CacheTrees = 256
	}
	return c
}

// Server is the planning daemon. Create one with New and mount it as an
// http.Handler; it is safe for concurrent use by any number of requests.
type Server struct {
	cfg     Config
	pool    *pool
	cache   *treeCache
	tenants *tenants
	mux     *http.ServeMux
	reg     *metrics.Registry

	mRequests  *metrics.CounterVec // by status code
	mLatency   *metrics.HistogramVec
	mPlans     *metrics.CounterVec // by model, rung
	mRejected  *metrics.Counter
	mInflight  *metrics.Gauge
	mCacheHit  *metrics.CounterVec // by model: srrp | step
	mCacheMiss *metrics.CounterVec // by model: srrp | step
	mWarmRoot  *metrics.CounterVec // by source: cache | tenant
	mCapSolve  *metrics.CounterVec // by path: dp | milp
	mPlanReuse *metrics.Counter
	mNodes     *metrics.Counter
	mWarmNodes *metrics.Counter
	mColdNodes *metrics.Counter
	mSimplexIt *metrics.Counter
	mDegraded  *metrics.CounterVec // by rung
}

// New returns a ready-to-mount daemon.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:     cfg,
		pool:    newPool(cfg.Workers, cfg.Queue),
		cache:   newTreeCache(cfg.CacheTrees),
		tenants: newTenants(),
		reg:     reg,

		mRequests:  reg.NewCounterVec("rentpland_requests_total", "Plan requests by HTTP status code.", "code"),
		mLatency:   reg.NewHistogramVec("rentpland_request_seconds", "End-to-end plan request latency.", nil, "model"),
		mPlans:     reg.NewCounterVec("rentpland_plans_total", "Completed plans by model and degradation rung.", "model", "rung"),
		mRejected:  reg.NewCounter("rentpland_queue_rejections_total", "Requests rejected by admission control (429)."),
		mInflight:  reg.NewGauge("rentpland_inflight_requests", "Admitted requests currently queued or solving."),
		mCacheHit:  reg.NewCounterVec("rentpland_tree_cache_hits_total", "Scenario-tree cache hits by model.", "model"),
		mCacheMiss: reg.NewCounterVec("rentpland_tree_cache_misses_total", "Scenario-tree cache misses (tree built) by model.", "model"),
		mWarmRoot:  reg.NewCounterVec("rentpland_warm_root_total", "MILP root relaxations warm-started from a shared basis.", "source"),
		mCapSolve:  reg.NewCounterVec("rentpland_capacitated_solves_total", "Fresh capacitated srrp and step solves by the path that answered: dp (the uncapacitated tree DP's plan fit every capacity) or milp (branch-and-bound).", "path"),
		mPlanReuse: reg.NewCounter("rentpland_plan_reuse_total", "Step decisions served from the tenant's previous plan without a solve."),
		mNodes:     reg.NewCounter("rentpland_mip_nodes_total", "Branch-and-bound nodes across all MILP solves."),
		mWarmNodes: reg.NewCounter("rentpland_mip_warm_nodes_total", "Warm-started node relaxations across all MILP solves."),
		mColdNodes: reg.NewCounter("rentpland_mip_cold_nodes_total", "Cold-started node relaxations across all MILP solves."),
		mSimplexIt: reg.NewCounter("rentpland_simplex_iterations_total", "Simplex pivots across all MILP solves."),
		mDegraded:  reg.NewCounterVec("rentpland_degradations_total", "Re-plans that fell below the full rung.", "rung"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the metrics registry (for tests and embedders).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// solveOverrun is how long one solve may outlast its budget: the scenario
// tree build before it (at most MaxTreeVertices vertices) and the
// degradation ladder's cheap rungs after the budget lapses.
const solveOverrun = time.Second

// MaxRequestTime bounds how long an admitted plan request takes from
// admission to answer, or is 0 when nothing does: with DefaultBudget 0 a
// request that sets no budgetMs solves unbudgeted. At most Queue requests
// are admitted at once, and each holds a worker (and, for a step request,
// its tenant's lock) for one solve of at most MaxBudget plus solveOverrun,
// so even when they run one after another, as requests of one tenant do,
// the last is answered within Queue solves.
func (s *Server) MaxRequestTime() time.Duration {
	if s.cfg.DefaultBudget <= 0 {
		return 0
	}
	return time.Duration(cap(s.pool.queued)) * (s.cfg.MaxBudget + solveOverrun)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := decodePlanRequest(r.Body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	// The request context is the root of the solve's context: a client
	// disconnect aborts the solve wherever it is (queued or pivoting).
	ctx := r.Context()
	budget := s.cfg.DefaultBudget
	if req.BudgetMS > 0 {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	if budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}

	var resp *PlanResponse
	var solveErr error
	s.mInflight.Add(1)
	poolErr := s.pool.do(ctx, func() {
		resp, solveErr = s.solve(ctx, req, budget)
	})
	s.mInflight.Add(-1)
	switch {
	case errors.Is(poolErr, ErrQueueFull):
		s.mRejected.Inc()
		s.fail(w, http.StatusTooManyRequests, "solver queue full, retry later")
		return
	case poolErr != nil:
		s.fail(w, http.StatusServiceUnavailable, "canceled while queued: "+poolErr.Error())
		return
	case solveErr != nil:
		s.fail(w, http.StatusUnprocessableEntity, solveErr.Error())
		return
	}
	s.mLatency.With(req.Model).Observe(time.Since(start).Seconds())
	s.mRequests.With("200").Inc()
	writeJSON(w, http.StatusOK, resp)
}

// solve dispatches one admitted request onto the core entry points; it runs
// on a pool worker.
func (s *Server) solve(ctx context.Context, req *PlanRequest, budget time.Duration) (*PlanResponse, error) {
	switch req.Model {
	case "drrp":
		return s.solveDRRP(ctx, req, budget)
	case "srrp":
		return s.solveSRRP(ctx, req, budget)
	default:
		return s.solveStep(ctx, req, budget)
	}
}

// withBudget layers the solve budget onto the request context for the
// plan-once models (the step model instead feeds the budget to the
// degradation ladder via ExecConfig.Budget).
func withBudget(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget > 0 {
		return context.WithTimeout(ctx, budget)
	}
	return context.WithCancel(ctx)
}

func (s *Server) solveDRRP(ctx context.Context, req *PlanRequest, budget time.Duration) (*PlanResponse, error) {
	sctx, cancel := withBudget(ctx, budget)
	defer cancel()
	plan, err := core.SolveDRRPCtx(sctx, req.params(), req.Prices, req.Demand)
	if err != nil {
		return nil, err
	}
	rung := core.RungFull
	if plan.Degraded {
		rung = core.RungIncumbent
	}
	s.countPlan(req.Model, rung)
	return &PlanResponse{
		Tenant: req.Tenant, Model: req.Model,
		Cost:    plan.Cost,
		Compute: plan.Breakdown.Compute, Holding: plan.Breakdown.Holding, Transfer: plan.Breakdown.Transfer(),
		Alpha: plan.Alpha, Chi: plan.Chi, Beta: plan.Beta,
		Degraded: plan.Degraded, Gap: plan.Gap, Rung: rung.String(),
	}, nil
}

func (s *Server) solveSRRP(ctx context.Context, req *PlanRequest, budget time.Duration) (*PlanResponse, error) {
	par := req.params()
	lambda, err := par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	entry, hit, err := s.tree(req, req.base(), req.bids(req.Stages), lambda, scenario.BuildConfig{
		Stages:    req.Stages,
		MaxBranch: req.MaxBranch,
		RootPrice: req.RootPrice,
	})
	if err != nil {
		return nil, err
	}
	bh := basisHash(req.Demand, par.Capacity)
	if par.Capacitated() {
		par.Solver.RootBasis = entry.loadBasis(bh)
	}
	sctx, cancel := withBudget(ctx, budget)
	defer cancel()
	plan, err := core.SolveSRRPCtx(sctx, par, entry.tree, req.Demand)
	if err != nil {
		return nil, err
	}
	entry.storeBasis(plan.RootBasis, bh)
	s.recordMIP(plan.Stats)
	warm := s.countCapacitated(par, plan, "cache")
	rung := core.RungFull
	if plan.Degraded {
		rung = core.RungIncumbent
	}
	s.countPlan(req.Model, rung)
	rent, gen := plan.RootRent, plan.RootAlpha
	resp := &PlanResponse{
		Tenant: req.Tenant, Model: req.Model,
		Cost:    plan.ExpCost,
		Compute: plan.Breakdown.Compute, Holding: plan.Breakdown.Holding, Transfer: plan.Breakdown.Transfer(),
		Alpha: plan.Alpha, Chi: plan.Chi, Beta: plan.Beta,
		Rent: &rent, Generate: &gen,
		Degraded: plan.Degraded, Gap: plan.Gap, Rung: rung.String(),
		TreeVertices: entry.tree.N(), CacheHit: hit, WarmRoot: warm,
	}
	if plan.Stats != nil {
		resp.Nodes = plan.Stats.Nodes
	}
	return resp, nil
}

func (s *Server) solveStep(ctx context.Context, req *PlanRequest, budget time.Duration) (*PlanResponse, error) {
	par := req.params()
	stride := max(req.Replan, 1)
	tn := s.tenants.get(req.Tenant)
	tn.mu.Lock()
	defer tn.mu.Unlock()

	// Warm path: serve the slot from the tenant's previous plan when it is
	// still inside the rolling stride and the realised price maps onto the
	// plan's tree.
	if v := tn.decisionFromPlan(req.Slot, stride, req.RootPrice, req.Bid); v >= 0 {
		s.mPlanReuse.Inc()
		s.countPlan(req.Model, core.RungFull)
		plan := &tn.plan
		rent, gen := plan.Chi[v], plan.Alpha[v]
		return &PlanResponse{
			Tenant: req.Tenant, Model: req.Model,
			Cost:    plan.ExpCost,
			Compute: plan.Breakdown.Compute, Holding: plan.Breakdown.Holding, Transfer: plan.Breakdown.Transfer(),
			Rent: &rent, Generate: &gen,
			Rung: core.RungFull.String(), TreeVertices: plan.Tree.N(), PlanReuse: true,
		}, nil
	}

	T := len(req.Demand)
	cfg := &core.ExecConfig{
		Par:        par,
		Actual:     constants(T, req.RootPrice),
		Demand:     req.Demand,
		Base:       req.base(),
		TreeStages: req.Stages,
		MaxBranch:  req.MaxBranch,
		Budget:     budget, // feeds the degradation ladder
		BuildTree: func(base stats.Discrete, bids []float64, lambda float64, bc scenario.BuildConfig) (*scenario.Tree, error) {
			entry, _, err := s.tree(req, base, bids, lambda, bc)
			if err != nil {
				return nil, err
			}
			return entry.tree, nil
		},
	}
	// Per-tenant warm start: reuse the last re-plan's root basis when the
	// MILP shape (lookahead) matches; a mismatch would merely cold-fall-
	// back, but skipping it keeps the accounting honest.
	stages := req.Stages
	if req.Slot+stages >= T {
		stages = T - 1 - req.Slot
	}
	if par.Capacitated() && tn.basis != nil && tn.basisFor == uint64(stages) {
		cfg.Par.Solver.RootBasis = tn.basis
	}
	plan, rung, err := core.PlanStochasticStepCtx(ctx, cfg, req.bids(T), req.Slot, req.Inventory)
	if err != nil {
		return nil, err
	}
	s.countPlan(req.Model, rung)
	if plan == nil {
		// Bottom rung: just-in-time rental for this slot.
		need := req.Demand[req.Slot] - req.Inventory
		if need < 0 {
			need = 0
		}
		rent := need > 0
		return &PlanResponse{
			Tenant: req.Tenant, Model: req.Model,
			Rent: &rent, Generate: &need, Rung: rung.String(),
		}, nil
	}
	s.recordMIP(plan.Stats)
	// A dp-rung plan is the ladder's fallback, not a capacitated solve's
	// answer; rentpland_degradations_total counts it.
	warm := rung != core.RungDP && s.countCapacitated(cfg.Par, plan, "tenant")
	tn.resetPlan(plan, req.Slot, stride)
	if plan.RootBasis != nil {
		tn.basis, tn.basisFor = plan.RootBasis, uint64(stages)
	}
	rent, gen := plan.RootRent, plan.RootAlpha
	resp := &PlanResponse{
		Tenant: req.Tenant, Model: req.Model,
		Cost:    plan.ExpCost,
		Compute: plan.Breakdown.Compute, Holding: plan.Breakdown.Holding, Transfer: plan.Breakdown.Transfer(),
		Rent: &rent, Generate: &gen,
		Degraded: plan.Degraded, Gap: plan.Gap, Rung: rung.String(),
		TreeVertices: plan.Tree.N(), WarmRoot: warm,
	}
	if plan.Stats != nil {
		resp.Nodes = plan.Stats.Nodes
	}
	return resp, nil
}

// tree returns the cache entry of the tree scenario.Build makes from these
// inputs for req's VM class, building it on a miss, and counts the lookup
// under req's model.
func (s *Server) tree(req *PlanRequest, base stats.Discrete, bids []float64, lambda float64, bc scenario.BuildConfig) (*treeEntry, bool, error) {
	entry, hit, err := s.cache.getOrBuild(keyFor(req.Class, base, bids, bc), func() (*scenario.Tree, error) {
		return scenario.Build(base, bids, lambda, bc)
	})
	if err != nil {
		return nil, false, err
	}
	if hit {
		s.mCacheHit.With(req.Model).Inc()
	} else {
		s.mCacheMiss.With(req.Model).Inc()
	}
	return entry, hit, nil
}

// countPlan bumps the per-model/rung plan counter and the degradation
// counter for non-full rungs.
func (s *Server) countPlan(model string, rung core.DegradeRung) {
	s.mPlans.With(model, rung.String()).Inc()
	if rung != core.RungFull {
		s.mDegraded.With(rung.String()).Inc()
	}
}

// countCapacitated counts a fresh capacitated solve of par under the path
// that answered it, and reports whether its MILP root was warm-started from
// the basis par offered: only a plan that carries MILP stats ran
// branch-and-bound, so a DP answer ignored any basis. A warm root is
// counted under source. Uncapacitated solves count nothing.
func (s *Server) countCapacitated(par core.Params, plan *core.StochasticPlan, source string) bool {
	if !par.Capacitated() {
		return false
	}
	if plan.Stats == nil {
		s.mCapSolve.With("dp").Inc()
		return false
	}
	s.mCapSolve.With("milp").Inc()
	if par.Solver.RootBasis == nil {
		return false
	}
	s.mWarmRoot.With(source).Inc()
	return true
}

// recordMIP folds a solve's branch-and-bound statistics into the daemon
// counters; nil (DP-path solves) is a no-op.
func (s *Server) recordMIP(st *mip.Stats) {
	if st == nil {
		return
	}
	s.mNodes.Add(float64(st.Nodes))
	s.mWarmNodes.Add(float64(st.WarmHits + st.WarmMisses + st.WarmDuals + st.WarmFallbacks))
	s.mColdNodes.Add(float64(st.ColdNodes))
	s.mSimplexIt.Add(float64(st.SimplexIters))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":      "ok",
		"tenants":     s.tenants.len(),
		"cachedTrees": s.cache.len(),
		"queueDepth":  s.pool.depth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w)
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.mRequests.With(strconv.Itoa(code)).Inc()
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func constants(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}
