package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rentplan/internal/core"
	"rentplan/internal/scenario"
)

// testServer returns a daemon with a small, deterministic configuration.
func testServer(t *testing.T) *Server {
	t.Helper()
	return New(Config{Workers: 2, Queue: 8, MaxBudget: time.Minute})
}

func postPlan(t *testing.T, s *Server, req interface{}) (*httptest.ResponseRecorder, *PlanResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response body: %v\n%s", err, rec.Body.String())
	}
	return rec, &resp
}

func drrpRequest() *PlanRequest {
	return &PlanRequest{
		Model:  "drrp",
		Class:  "c1.medium",
		Demand: []float64{2, 3, 1, 4, 2, 5},
		Prices: []float64{0.05, 0.03, 0.06, 0.02, 0.05, 0.04},
	}
}

func srrpRequest() *PlanRequest {
	return &PlanRequest{
		Model:      "srrp",
		Class:      "c1.medium",
		Demand:     []float64{2, 3, 1, 4},
		Bid:        0.05,
		Stages:     3,
		RootPrice:  0.03,
		BaseValues: []float64{0.02, 0.04, 0.07},
		BaseProbs:  []float64{0.5, 0.3, 0.2},
	}
}

func stepRequest(tenant string, slot int, inv float64) *PlanRequest {
	return &PlanRequest{
		Tenant:     tenant,
		Model:      "step",
		Class:      "c1.medium",
		Demand:     []float64{2, 3, 1, 4, 2, 5, 3, 2},
		Bid:        0.05,
		Stages:     2,
		RootPrice:  0.03,
		BaseValues: []float64{0.02, 0.04, 0.07},
		BaseProbs:  []float64{0.5, 0.3, 0.2},
		Slot:       slot,
		Inventory:  inv,
		Replan:     3,
	}
}

// TestPlanDRRPMatchesDirectSolve checks the HTTP path returns the same
// objective as calling the solver directly.
func TestPlanDRRPMatchesDirectSolve(t *testing.T) {
	s := testServer(t)
	req := drrpRequest()
	rec, resp := postPlan(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	want, err := core.SolveDRRPCtx(context.Background(), req.params(), req.Prices, req.Demand)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cost != want.Cost {
		t.Fatalf("cost %v over HTTP, %v direct", resp.Cost, want.Cost)
	}
	if len(resp.Alpha) != len(req.Demand) || len(resp.Chi) != len(req.Demand) {
		t.Fatalf("decision lengths %d/%d, want %d", len(resp.Alpha), len(resp.Chi), len(req.Demand))
	}
	if resp.Rung != core.RungFull.String() {
		t.Fatalf("rung %q", resp.Rung)
	}
}

// TestPlanSRRPCacheAndMatch checks the stochastic path against a direct
// solve and that a second identical request hits the tree cache.
func TestPlanSRRPCacheAndMatch(t *testing.T) {
	s := testServer(t)
	req := srrpRequest()

	rec, resp := postPlan(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.CacheHit {
		t.Fatal("first request reported a cache hit")
	}

	par := req.params()
	lambda, err := par.OnDemandRate()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := scenario.Build(req.base(), req.bids(req.Stages), lambda, scenario.BuildConfig{
		Stages: req.Stages, RootPrice: req.RootPrice,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SolveSRRPCtx(context.Background(), par, tree, req.Demand)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cost != want.ExpCost {
		t.Fatalf("expected cost %v over HTTP, %v direct", resp.Cost, want.ExpCost)
	}
	if resp.TreeVertices != tree.N() {
		t.Fatalf("tree size %d, want %d", resp.TreeVertices, tree.N())
	}
	if resp.Rent == nil || resp.Generate == nil {
		t.Fatal("missing here-and-now decision")
	}

	rec2, resp2 := postPlan(t, s, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second status %d", rec2.Code)
	}
	if !resp2.CacheHit {
		t.Fatal("second identical request missed the tree cache")
	}
	if resp2.Cost != resp.Cost {
		t.Fatalf("cached-tree cost %v differs from first %v", resp2.Cost, resp.Cost)
	}
	if s.cache.len() != 1 {
		t.Fatalf("cache holds %d trees, want 1", s.cache.len())
	}
}

// bindingCapacity caps srrpRequest's stage 1 below its demand of 3, so the
// uncapacitated tree DP's plan, which produces each stage's demand where it
// falls, no longer fits and the solve runs branch-and-bound.
var bindingCapacity = []float64{4, 2.5, 4, 4}

// TestPlanSRRPWarmRoot checks a capacitated instance publishes a root basis
// on the first solve and warm-starts the second tenant's root from it.
func TestPlanSRRPWarmRoot(t *testing.T) {
	s := testServer(t)
	req := srrpRequest()
	req.Capacity = bindingCapacity
	req.ConsumptionRate = 1

	rec, resp := postPlan(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.WarmRoot {
		t.Fatal("first capacitated solve claims a warm root")
	}
	if resp.Nodes == 0 {
		t.Fatal("capacitated solve reported zero branch-and-bound nodes")
	}

	rec2, resp2 := postPlan(t, s, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second status %d", rec2.Code)
	}
	if !resp2.WarmRoot {
		t.Fatal("second identical capacitated solve did not warm-start the root")
	}
	if resp2.Cost != resp.Cost {
		t.Fatalf("warm cost %v differs from cold %v", resp2.Cost, resp.Cost)
	}
}

// scrape returns the daemon's /v1/metrics exposition.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// wantMetrics fails unless every line of want appears in the exposition.
func wantMetrics(t *testing.T, body string, want ...string) {
	t.Helper()
	for _, line := range want {
		if !strings.Contains(body, line+"\n") {
			t.Fatalf("metrics missing %q in:\n%s", line, body)
		}
	}
}

// TestCapacitatedSolvesCountedByPath checks that a capacitated srrp solve
// whose capacity is slack is answered by the tree DP, with no nodes and no
// warm root, and that it and a binding solve each bump their own series of
// rentpland_capacitated_solves_total once; an uncapacitated solve bumps
// neither.
func TestCapacitatedSolvesCountedByPath(t *testing.T) {
	s := testServer(t)
	mustPost(t, s, srrpRequest())
	slack := srrpRequest()
	slack.Capacity, slack.ConsumptionRate = []float64{4, 4, 4, 4}, 1
	resp := mustPost(t, s, slack)
	if resp.Nodes != 0 || resp.WarmRoot {
		t.Fatalf("slack capacity: nodes %d, warm root %v; want the DP's answer", resp.Nodes, resp.WarmRoot)
	}
	if want := mustPost(t, s, srrpRequest()); resp.Cost != want.Cost {
		t.Fatalf("slack capacity costs %v, the uncapacitated plan %v", resp.Cost, want.Cost)
	}
	binding := srrpRequest()
	binding.Capacity, binding.ConsumptionRate = bindingCapacity, 1
	if resp := mustPost(t, s, binding); resp.Nodes == 0 {
		t.Fatal("binding capacity ran no branch-and-bound")
	}
	wantMetrics(t, scrape(t, s),
		`rentpland_capacitated_solves_total{path="dp"} 1`,
		`rentpland_capacitated_solves_total{path="milp"} 1`)
}

// TestStepWarmRootOnlyWhenMILPRan checks a tenant's stored root basis is
// reported and counted as a warm root only when the re-plan runs
// branch-and-bound: a re-plan that fits the tree DP's plan ignores the
// basis, and the next binding re-plan still starts from it.
func TestStepWarmRootOnlyWhenMILPRan(t *testing.T) {
	s := testServer(t)
	step := func(slot int, capacity []float64) *PlanResponse {
		req := stepRequest("acme", slot, 0)
		req.Replan = 1
		req.Capacity, req.ConsumptionRate = capacity, 1
		return mustPost(t, s, req)
	}
	// Stage 1 demands 3 at slot 0 and 4 at slot 2; a cap of 2 binds both.
	binding, slack := []float64{6, 2, 6}, []float64{100, 100, 100}
	if resp := step(0, binding); resp.Nodes == 0 || resp.WarmRoot {
		t.Fatalf("first binding re-plan: nodes %d, warm root %v; want a cold MILP", resp.Nodes, resp.WarmRoot)
	}
	if s.tenants.get("acme").basis == nil {
		t.Fatal("binding re-plan stored no root basis")
	}
	if resp := step(1, slack); resp.Nodes != 0 || resp.WarmRoot {
		t.Fatalf("slack re-plan: nodes %d, warm root %v; want the DP's answer", resp.Nodes, resp.WarmRoot)
	}
	if strings.Contains(scrape(t, s), "rentpland_warm_root_total{") {
		t.Fatal("a re-plan the DP answered counted a warm root")
	}
	if resp := step(2, binding); resp.Nodes == 0 || !resp.WarmRoot {
		t.Fatalf("second binding re-plan: nodes %d, warm root %v; want a warm MILP", resp.Nodes, resp.WarmRoot)
	}
	wantMetrics(t, scrape(t, s),
		`rentpland_warm_root_total{source="tenant"} 1`,
		`rentpland_capacitated_solves_total{path="dp"} 1`,
		`rentpland_capacitated_solves_total{path="milp"} 2`)
}

// TestShortCapacityIsUnprocessable checks an srrp request whose capacity
// series does not cover every tree stage gets 422 and the solver's error,
// whether or not the uncapacitated plan fits the stages it does cover.
func TestShortCapacityIsUnprocessable(t *testing.T) {
	s := testServer(t)
	for _, capacity := range [][]float64{{100, 100}, {1, 1}} {
		req := srrpRequest()
		req.Capacity, req.ConsumptionRate = capacity, 1
		rec, _ := postPlan(t, s, req)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("capacity %v: %v in %s", capacity, err, rec.Body.String())
		}
		if want := "core: capacity series shorter than stages (2 < 4)"; rec.Code != http.StatusUnprocessableEntity || eb.Error != want {
			t.Fatalf("capacity %v: status %d, error %q; want 422 and %q", capacity, rec.Code, eb.Error, want)
		}
	}
}

// TestPlanStepReusesTenantPlan checks the rolling warm path: a plan from
// slot 0 with stride 3 serves slots 1 and 2 without a new solve.
func TestPlanStepReusesTenantPlan(t *testing.T) {
	s := testServer(t)

	rec, resp := postPlan(t, s, stepRequest("acme", 0, 0))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.PlanReuse {
		t.Fatal("first step request claims plan reuse")
	}
	if resp.Rent == nil || resp.Generate == nil {
		t.Fatal("missing here-and-now decision")
	}

	for slot := 1; slot <= 2; slot++ {
		rec, resp := postPlan(t, s, stepRequest("acme", slot, 1))
		if rec.Code != http.StatusOK {
			t.Fatalf("slot %d status %d: %s", slot, rec.Code, rec.Body.String())
		}
		if !resp.PlanReuse {
			t.Fatalf("slot %d inside the stride did not reuse the plan", slot)
		}
	}

	// Slot 3 leaves the stride: a fresh solve.
	rec, resp = postPlan(t, s, stepRequest("acme", 3, 1))
	if rec.Code != http.StatusOK {
		t.Fatalf("slot 3 status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.PlanReuse {
		t.Fatal("slot outside the stride reused the stale plan")
	}

	// A different tenant never sees acme's plan.
	rec, resp = postPlan(t, s, stepRequest("globex", 1, 0))
	if rec.Code != http.StatusOK {
		t.Fatalf("globex status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.PlanReuse {
		t.Fatal("fresh tenant reused another tenant's plan")
	}
	if s.tenants.len() != 2 {
		t.Fatalf("%d tenants registered, want 2", s.tenants.len())
	}
}

// TestPlanValidationErrors checks the decoder rejects malformed requests
// with 400 and never reaches a solver.
func TestPlanValidationErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"model":`},
		{"unknown field", `{"model":"drrp","bogus":1}`},
		{"bad model", `{"model":"milp","class":"c1.medium","demand":[1]}`},
		{"unknown class", `{"model":"drrp","class":"t2.nano","demand":[1],"prices":[1]}`},
		{"negative demand", `{"model":"drrp","class":"c1.medium","demand":[1,-2],"prices":[1,1]}`},
		{"zero price", `{"model":"drrp","class":"c1.medium","demand":[1,2],"prices":[1,0]}`},
		{"price length", `{"model":"drrp","class":"c1.medium","demand":[1,2],"prices":[1]}`},
		{"nan via string", `{"model":"drrp","class":"c1.medium","demand":[1,"NaN"],"prices":[1,1]}`},
		{"negative budget", `{"model":"drrp","class":"c1.medium","demand":[1],"prices":[1],"budgetMs":-5}`},
		{"srrp demand mismatch", `{"model":"srrp","class":"c1.medium","demand":[1,2],"stages":3,"bid":0.05,"rootPrice":0.03,"baseValues":[0.02,0.05]}`},
		{"probs sum", `{"model":"srrp","class":"c1.medium","demand":[1,2],"stages":1,"bid":0.05,"rootPrice":0.03,"baseValues":[0.02,0.05],"baseProbs":[0.7,0.7]}`},
		{"step without tenant", `{"model":"step","class":"c1.medium","demand":[1,2],"stages":1,"bid":0.05,"rootPrice":0.03,"baseValues":[0.02]}`},
		{"step slot outside", `{"model":"step","tenant":"a","class":"c1.medium","demand":[1,2],"stages":1,"bid":0.05,"rootPrice":0.03,"baseValues":[0.02],"slot":2}`},
		{"oversized tree", `{"model":"step","tenant":"a","class":"c1.medium","demand":[1,2],"stages":40,"bid":0.05,"rootPrice":0.03,"baseValues":[0.02]}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: no error message in %s", tc.name, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan: status %d, want 405", rec.Code)
	}
}

// TestQueueFull checks admission control: with every queue slot occupied,
// a new request is rejected immediately with 429.
func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1, MaxBudget: time.Minute})
	// Occupy the only queue slot out-of-band.
	s.pool.queued <- struct{}{}
	defer func() { <-s.pool.queued }()

	rec, _ := postPlan(t, s, drrpRequest())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
}

// TestHealthzAndMetrics checks the observability endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	s := testServer(t)
	if rec, _ := postPlan(t, s, srrpRequest()); rec.Code != http.StatusOK {
		t.Fatalf("plan status %d", rec.Code)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var hz struct {
		Status      string `json:"status"`
		Tenants     int    `json:"tenants"`
		CachedTrees int    `json:"cachedTrees"`
		QueueDepth  int    `json:"queueDepth"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.CachedTrees != 1 {
		t.Fatalf("healthz %+v", hz)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`rentpland_requests_total{code="200"} 1`,
		`rentpland_plans_total{model="srrp",rung="full"} 1`,
		`rentpland_tree_cache_misses_total{model="srrp"} 1`,
		"rentpland_request_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestValidateBoundsTreeSize pins the scenario-tree ceiling: the vertex
// bound Σ_{k≤stages} bᵏ, with b the most children scenario.Build can keep,
// must stay within MaxTreeVertices, for any stages and without overflow.
func TestValidateBoundsTreeSize(t *testing.T) {
	withStages := func(stages, maxBranch int, values ...float64) *PlanRequest {
		q := srrpRequest()
		q.Stages, q.MaxBranch = stages, maxBranch
		q.Demand = make([]float64, stages+1)
		q.BaseValues, q.BaseProbs = values, nil
		return q
	}
	three := []float64{0.02, 0.04, 0.07}
	cases := []struct {
		name string
		q    *PlanRequest
		ok   bool
	}{
		{"perfbench serve-dp tree (364 vertices)", withStages(5, 3, three...), true},
		{"uncapped, 4 children", withStages(8, 0, three...), true},                  // 87381
		{"uncapped, 4 children, one stage more", withStages(9, 0, three...), false}, // 349525
		{"maxBranch caps the children", withStages(16, 2, three...), true},          // 131071
		{"maxBranch 1 still allows two children", withStages(17, 1, three...), false},
		{"maxBranch above the states does not widen", withStages(9, 50, three...), false},
		{"40 stages", withStages(40, 0, 0.02), false},
		{"overflowing stages", withStages(1<<20, 0, three...), false},
	}
	for _, tc := range cases {
		err := tc.q.validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
