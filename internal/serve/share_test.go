package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"rentplan/internal/core"
	"rentplan/internal/lp"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

// privateDaemon answers step and srrp requests the way rentpland did before
// step re-plans took their trees from the tree cache: every re-plan builds
// a private tree (ExecConfig.BuildTree nil), and a tenant keeps the whole
// plan. It is the oracle the shared-tree daemon must match bit for bit
// wherever a tenant's stride does not grow.
type privateDaemon struct {
	tenants map[string]*privateTenant
}

type privateTenant struct {
	plan      *core.StochasticPlan
	planStart int
	path      []int
	basis     *lp.Basis
	basisFor  int
}

func (o *privateDaemon) answer(t *testing.T, req *PlanRequest) PlanResponse {
	t.Helper()
	par := req.params()
	lambda, err := par.OnDemandRate()
	if err != nil {
		t.Fatal(err)
	}
	if req.Model == "srrp" {
		tree, err := scenario.Build(req.base(), req.bids(req.Stages), lambda, scenario.BuildConfig{
			Stages: req.Stages, MaxBranch: req.MaxBranch, RootPrice: req.RootPrice,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.SolveSRRPCtx(context.Background(), par, tree, req.Demand)
		if err != nil {
			t.Fatal(err)
		}
		rung := core.RungFull
		if plan.Degraded {
			rung = core.RungIncumbent
		}
		rent, gen := plan.RootRent, plan.RootAlpha
		return PlanResponse{Cost: plan.ExpCost, Rent: &rent, Generate: &gen, Rung: rung.String(), TreeVertices: tree.N()}
	}

	stride := max(req.Replan, 1)
	tn := o.tenants[req.Tenant]
	if tn == nil {
		tn = &privateTenant{}
		o.tenants[req.Tenant] = tn
	}
	if tn.plan != nil && req.Slot >= tn.planStart && req.Slot < tn.planStart+stride {
		k := req.Slot - tn.planStart
		var ok bool
		if tn.path, ok = tn.plan.Follow(tn.path, k, func(int) (float64, float64) { return req.RootPrice, req.Bid }); ok {
			v := tn.path[k]
			rent, gen := tn.plan.Chi[v], tn.plan.Alpha[v]
			return PlanResponse{Cost: tn.plan.ExpCost, Rent: &rent, Generate: &gen, Rung: core.RungFull.String(),
				TreeVertices: tn.plan.Tree.N(), PlanReuse: true}
		}
	}
	T := len(req.Demand)
	cfg := &core.ExecConfig{
		Par: par, Actual: constants(T, req.RootPrice), Demand: req.Demand, Base: req.base(),
		TreeStages: req.Stages, MaxBranch: req.MaxBranch,
	}
	stages := min(req.Stages, T-1-req.Slot)
	if par.Capacitated() && tn.basis != nil && tn.basisFor == stages {
		cfg.Par.Solver.RootBasis = tn.basis
	}
	plan, rung, err := core.PlanStochasticStepCtx(context.Background(), cfg, req.bids(T), req.Slot, req.Inventory)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		need := max(req.Demand[req.Slot]-req.Inventory, 0)
		rent := need > 0
		return PlanResponse{Rent: &rent, Generate: &need, Rung: rung.String()}
	}
	tn.plan, tn.planStart, tn.path = plan, req.Slot, []int{0}
	if plan.RootBasis != nil {
		tn.basis, tn.basisFor = plan.RootBasis, stages
	}
	rent, gen := plan.RootRent, plan.RootAlpha
	return PlanResponse{Cost: plan.ExpCost, Rent: &rent, Generate: &gen, Rung: rung.String(), TreeVertices: plan.Tree.N()}
}

// shareMarket is one spot market of the scripted streams: a VM class, a
// summarised price distribution, the bid its tenants place, a branch cap,
// and the spot price it shows at each slot.
type shareMarket struct {
	class      string
	values     []float64
	probs      []float64
	bid        float64
	maxBranch  int
	rootPrices []float64
}

var shareMarkets = []shareMarket{
	{"c1.medium", []float64{0.02, 0.04, 0.07}, []float64{0.5, 0.3, 0.2}, 0.05, 0,
		[]float64{0.03, 0.045, 0.08, 0.02, 0.04, 0.06, 0.03, 0.05, 0.07, 0.02}},
	{"m1.large", []float64{0.05, 0.09, 0.12, 0.2}, nil, 0.13, 3,
		[]float64{0.1, 0.12, 0.15, 0.09, 0.05, 0.12, 0.2, 0.09, 0.1, 0.12}},
	{"c1.medium", []float64{0.03, 0.05, 0.06, 0.09}, []float64{0.25, 0.25, 0.3, 0.2}, 0.065, 3,
		[]float64{0.05, 0.05, 0.06, 0.1, 0.03, 0.05, 0.06, 0.09, 0.05, 0.04}},
	{"m1.large", []float64{0.08, 0.11, 0.13}, []float64{0.6, 0.3, 0.1}, 0.12, 2,
		[]float64{0.11, 0.08, 0.13, 0.11, 0.09, 0.12, 0.08, 0.11, 0.13, 0.1}},
}

// shareStep is tenant i's step request at slot over a horizon of T slots:
// market i%markets, the given lookahead and stride, demand that differs per
// tenant, and, when capacitated, a capacity on every tree stage. Demands
// run from 1 to 5 and the capacity is 6, except at stage 1, where it is 4:
// a re-plan whose next slot demands 5 binds there, since the uncapacitated
// tree DP produces each stage's demand where it falls, and the others fit
// the DP's plan.
func shareStep(i, markets, slot, T, stages, stride int, capacitated bool, inv float64) *PlanRequest {
	m := shareMarkets[i%markets]
	dem := make([]float64, T)
	for j := range dem {
		dem[j] = 1 + float64((i*7+j*3)%5)
	}
	q := &PlanRequest{
		Tenant: fmt.Sprintf("tenant-%d", i), Model: "step", Class: m.class,
		Demand: dem, Bid: m.bid, Stages: stages, MaxBranch: m.maxBranch,
		RootPrice: m.rootPrices[slot%len(m.rootPrices)], BaseValues: m.values, BaseProbs: m.probs,
		Slot: slot, Inventory: inv, Replan: stride,
	}
	if capacitated {
		q.Capacity, q.ConsumptionRate = constants(stages+1, 6), 1
		q.Capacity[1] = 4
	}
	return q
}

// shareJoin is an srrp request on market m at slot with the given
// lookahead.
func shareJoin(m, slot, stages int) *PlanRequest {
	mk := shareMarkets[m]
	dem := make([]float64, stages+1)
	for j := range dem {
		dem[j] = 2 + float64((m+j)%3)
	}
	return &PlanRequest{
		Model: "srrp", Class: mk.class, Demand: dem, Bid: mk.bid, Stages: stages, MaxBranch: mk.maxBranch,
		RootPrice: mk.rootPrices[slot%len(mk.rootPrices)], BaseValues: mk.values, BaseProbs: mk.probs,
	}
}

func mustPost(t *testing.T, s *Server, req *PlanRequest) *PlanResponse {
	t.Helper()
	rec, resp := postPlan(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s slot %d: status %d: %s", req.Model, req.Tenant, req.Slot, rec.Code, rec.Body.String())
	}
	return resp
}

// TestSharedTreeStepsMatchPrivateOracle replays one scripted stream through
// the daemon and through privateDaemon: tenants of three markets,
// uncapacitated and capacitated (some re-plans binding, some answered by
// the tree DP), strides 1-3 held per tenant, lookaheads 3-5 over a 9-slot
// horizon (so the last slots re-plan on truncated tails), with srrp joins
// of each market interleaved. Every answer must match the oracle's bit for
// bit.
func TestSharedTreeStepsMatchPrivateOracle(t *testing.T) {
	const tenantsN, markets, T = 12, 3, 9
	s := testServer(t)
	o := &privateDaemon{tenants: map[string]*privateTenant{}}
	inv := make([]float64, tenantsN)
	reused, tails, milp, dp := 0, 0, 0, 0
	check := func(req *PlanRequest, got *PlanResponse, want PlanResponse) {
		t.Helper()
		if got.Cost != want.Cost || derefBool(got.Rent) != derefBool(want.Rent) ||
			derefFloat(got.Generate) != derefFloat(want.Generate) || got.Rung != want.Rung ||
			got.PlanReuse != want.PlanReuse || got.TreeVertices != want.TreeVertices {
			t.Fatalf("%s %s slot %d stages %d: daemon {cost %v rent %v gen %v rung %s reuse %v vertices %d}, oracle {cost %v rent %v gen %v rung %s reuse %v vertices %d}",
				req.Model, req.Tenant, req.Slot, req.Stages,
				got.Cost, derefBool(got.Rent), derefFloat(got.Generate), got.Rung, got.PlanReuse, got.TreeVertices,
				want.Cost, derefBool(want.Rent), derefFloat(want.Generate), want.Rung, want.PlanReuse, want.TreeVertices)
		}
	}
	for slot := 0; slot < T; slot++ {
		for i := 0; i < tenantsN; i++ {
			req := shareStep(i, markets, slot, T, 3+(i/2)%3, 1+(i/markets)%3, i%2 == 1, inv[i])
			got := mustPost(t, s, req)
			check(req, got, o.answer(t, req))
			if got.PlanReuse {
				reused++
			}
			switch {
			case got.Nodes > 0:
				milp++
			case req.Capacity != nil && !got.PlanReuse:
				dp++
			}
			if !got.PlanReuse && slot+req.Stages >= T {
				tails++
			}
			inv[i] = max(inv[i]+derefFloat(got.Generate)-req.Demand[slot], 0)
		}
		for m := 0; m < markets; m++ {
			req := shareJoin(m, slot, 2+slot%3)
			check(req, mustPost(t, s, req), o.answer(t, req))
		}
	}
	if reused == 0 || tails == 0 || milp == 0 || dp == 0 {
		t.Fatalf("stream exercised %d plan reuses, %d tail re-plans, %d MILP re-plans and %d capacitated re-plans the DP answered; want each",
			reused, tails, milp, dp)
	}
}

// TestTreeKeyCoversBuildInputs checks the cache key separates trees that
// differ in any one input scenario.Build reads, and only those: changing
// the class, bid, root price, stages, branch cap, base values or base
// probabilities of an srrp request builds a new tree, and a non-constant
// bids slice never aliases a constant one.
func TestTreeKeyCoversBuildInputs(t *testing.T) {
	s := testServer(t)
	variants := []struct {
		name  string
		patch func(q *PlanRequest)
	}{
		{"reference", func(q *PlanRequest) {}},
		{"class", func(q *PlanRequest) { q.Class = "m1.large" }},
		{"bid", func(q *PlanRequest) { q.Bid = 0.06 }},
		{"root price", func(q *PlanRequest) { q.RootPrice = 0.031 }},
		{"stages", func(q *PlanRequest) { q.Stages, q.Demand = 2, q.Demand[:3] }},
		{"branch cap", func(q *PlanRequest) { q.MaxBranch = 2 }},
		{"base values", func(q *PlanRequest) { q.BaseValues = []float64{0.02, 0.04, 0.08} }},
		{"base probs", func(q *PlanRequest) { q.BaseProbs = []float64{0.4, 0.4, 0.2} }},
	}
	seen := map[*scenario.Tree]string{}
	for k, v := range variants {
		q := srrpRequest()
		v.patch(q)
		resp := mustPost(t, s, q)
		if resp.CacheHit {
			t.Fatalf("%s: hit the cache entry of another variant", v.name)
		}
		if s.cache.len() != k+1 {
			t.Fatalf("%s: %d cached trees after %d distinct requests", v.name, s.cache.len(), k+1)
		}
		tr := s.cache.entries[s.cache.order[k]].tree
		if prev, ok := seen[tr]; ok {
			t.Fatalf("%s shares a tree with %s", v.name, prev)
		}
		seen[tr] = v.name
		if again := mustPost(t, s, q); !again.CacheHit {
			t.Fatalf("%s: repeating the request missed the cache", v.name)
		}
	}

	// A step re-plan keys its tree by the stages it builds: over 8 slots
	// with lookahead 2, slot 5 builds the two stages of the "stages"
	// variant's tree, and the tail at slot 6 builds one, a new tree that an
	// srrp request over one stage then finds.
	n := s.cache.len()
	for _, c := range []struct{ slot, vertices, trees int }{{5, 13, n}, {6, 4, n + 1}} {
		step := stepRequest("tail", c.slot, 0)
		step.Replan = 1
		if resp := mustPost(t, s, step); resp.TreeVertices != c.vertices {
			t.Fatalf("step at slot %d planned on %d vertices, want %d", c.slot, resp.TreeVertices, c.vertices)
		}
		if got := s.cache.len(); got != c.trees {
			t.Fatalf("step at slot %d: %d cached trees, want %d", c.slot, got, c.trees)
		}
	}
	if resp := mustPost(t, s, srrpRequestStages(1)); !resp.CacheHit {
		t.Fatal("srrp request over one stage missed the tree the one-stage tail re-plan built")
	}

	base := stats.Discrete{Values: []float64{0.02, 0.04, 0.07}, Probs: []float64{0.5, 0.3, 0.2}}
	bc := scenario.BuildConfig{Stages: 3, RootPrice: 0.03}
	constant := keyFor("c1.medium", base, []float64{0.05, 0.05, 0.05}, bc)
	for _, bids := range [][]float64{{0.05, 0.05, 0.06}, {0.06, 0.05, 0.05}, {0.05, 0.06, 0.05}} {
		if keyFor("c1.medium", base, bids, bc) == constant {
			t.Fatalf("bids %v alias the constant bids 0.05", bids)
		}
	}
	if keyFor("c1.medium", base, []float64{0.05, 0.05, 0.05}, bc) != constant {
		t.Fatal("equal inputs give different keys")
	}
}

func srrpRequestStages(stages int) *PlanRequest {
	q := srrpRequest()
	q.Stages, q.Demand = stages, q.Demand[:stages+1]
	return q
}

// TestStepReplansShareCachedTrees checks tree sharing and the trimmed
// tenant state: tenants of one market re-planning at one slot leave one
// cache entry per (stages, root price) and plan on the same tree; an srrp
// join with equal inputs hits it; a tenant keeps decisions only for the
// vertices at a stage below its planning stride; and a tenant planned at
// stride 1 re-plans when its next request asks for stride 2.
func TestStepReplansShareCachedTrees(t *testing.T) {
	s := testServer(t)
	const N = 6
	for i := 0; i < N; i++ {
		req := tenantStep(i, 0)
		req.Replan = 2
		if i%2 == 1 {
			req.Stages = 3
		}
		mustPost(t, s, req)
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("%d cached trees after two lookaheads at one slot, want 2", n)
	}
	for i := 2; i < N; i++ {
		if a, b := s.tenants.get(fmt.Sprintf("tenant-%d", i)).plan.Tree, s.tenants.get(fmt.Sprintf("tenant-%d", i%2)).plan.Tree; a != b {
			t.Fatalf("tenant-%d and tenant-%d re-planned with one lookahead on different trees", i, i%2)
		}
	}
	for i := 0; i < N; i++ {
		tn := s.tenants.get(fmt.Sprintf("tenant-%d", i))
		// Branching 3: stage 0 is the root, stage 1 its three children.
		if len(tn.plan.Alpha) != 4 || len(tn.plan.Chi) != 4 || tn.plan.Beta != nil {
			t.Fatalf("tenant-%d keeps %d/%d/%d alpha/chi/beta entries of a %d-vertex plan at stride 2, want 4/4/0",
				i, len(tn.plan.Alpha), len(tn.plan.Chi), len(tn.plan.Beta), tn.plan.Tree.N())
		}
	}
	if resp := mustPost(t, s, srrpRequestStages(2)); !resp.CacheHit {
		t.Fatal("srrp join missed the tree the step re-plans built")
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("%d cached trees after the join, want 2", n)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	metrics := rec.Body.Bytes()
	for _, want := range []string{
		`rentpland_tree_cache_misses_total{model="step"} 2`,
		`rentpland_tree_cache_hits_total{model="step"} 4`,
		`rentpland_tree_cache_hits_total{model="srrp"} 1`,
	} {
		if !bytes.Contains(metrics, []byte(want+"\n")) {
			t.Fatalf("metrics missing %q in:\n%s", want, metrics)
		}
	}

	// Stride 2 reuses the plan at the next slot; a tenant planned at
	// stride 1 that now asks for stride 2 re-plans, because it kept no
	// decision past the root.
	next := tenantStep(0, 1)
	next.Replan = 2
	if resp := mustPost(t, s, next); !resp.PlanReuse {
		t.Fatal("stride-2 tenant did not reuse its plan inside the stride")
	}
	grow := tenantStep(N, 0)
	grow.Replan = 1
	mustPost(t, s, grow)
	if n := len(s.tenants.get(fmt.Sprintf("tenant-%d", N)).plan.Alpha); n != 1 {
		t.Fatalf("stride-1 tenant keeps %d decisions, want the root's", n)
	}
	grow = tenantStep(N, 1)
	grow.Replan = 2
	if resp := mustPost(t, s, grow); resp.PlanReuse {
		t.Fatal("tenant planned at stride 1 reused its plan at stride 2")
	}
}

// maxTenantBytes bounds the heap one step tenant retains between requests
// in the workload below. A tenant that pins a private tree and its whole
// plan retains about 7.8 KB there; one that points into the shared tree
// cache and keeps only the decisions inside its stride, about 0.5 KB. The
// bound leaves at least 2x on either side.
const maxTenantBytes = 3 << 10

// TestTenantRetainedHeap drives 1000 step tenants over four markets
// (lookaheads 3-5, stride 2, four slots each) through one daemon and
// bounds the heap it retains per tenant after a GC, net of the empty
// daemon. The cached trees count, shared among the tenants.
func TestTenantRetainedHeap(t *testing.T) {
	const tenantsN, markets, slots, T = 1000, 4, 4, 12
	s := New(Config{Workers: 2, Queue: 8, MaxBudget: time.Minute})
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle also empties the sync.Pool victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	for slot := 0; slot < slots; slot++ {
		for i := 0; i < tenantsN; i++ {
			body, err := json.Marshal(shareStep(i, markets, slot, T, 3+i%3, 2, false, 0))
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("tenant %d slot %d: status %d: %s", i, slot, rec.Code, rec.Body.String())
			}
		}
	}
	per := float64(heap()-before) / tenantsN
	runtime.KeepAlive(s)
	if n := s.tenants.len(); n != tenantsN {
		t.Fatalf("%d tenants registered, want %d", n, tenantsN)
	}
	t.Logf("retained heap: %.0f bytes per tenant (%d cached trees)", per, s.cache.len())
	if per > maxTenantBytes {
		t.Fatalf("daemon retains %.0f bytes per step tenant, bound %d", per, maxTenantBytes)
	}
}
