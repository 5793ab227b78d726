package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rentplan/internal/core"
	"rentplan/internal/scenario"
)

// serialCost solves a request's model directly (no daemon, no cache) and
// returns the reference objective. This is the ground truth the concurrent
// HTTP path must reproduce bit-identically.
func serialCost(t *testing.T, req *PlanRequest) float64 {
	t.Helper()
	par := req.params()
	switch req.Model {
	case "drrp":
		plan, err := core.SolveDRRPCtx(context.Background(), par, req.Prices, req.Demand)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Cost
	case "srrp":
		lambda, err := par.OnDemandRate()
		if err != nil {
			t.Fatal(err)
		}
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
		return plan.ExpCost
	}
	t.Fatalf("serialCost: model %q", req.Model)
	return 0
}

// distinctInstance returns the i-th of a family of structurally different
// SRRP instances (different demand and root price → different tree keys).
func distinctInstance(i int) *PlanRequest {
	req := srrpRequest()
	req.Tenant = fmt.Sprintf("tenant-%d", i)
	req.RootPrice = 0.02 + 0.001*float64(i%7)
	for j := range req.Demand {
		req.Demand[j] += float64(i % 5)
	}
	return req
}

// TestConcurrentDistinctInstances drives N goroutines through the daemon,
// each solving a different instance, and checks every objective is
// bit-identical to its serial reference. Run under -race this is the core
// reentrancy guarantee: no cross-request state bleeds between solves.
func TestConcurrentDistinctInstances(t *testing.T) {
	s := New(Config{Workers: 4, Queue: 64, MaxBudget: time.Minute})
	const N = 24

	want := make([]float64, N)
	for i := 0; i < N; i++ {
		want[i] = serialCost(t, distinctInstance(i))
	}

	got := make([]float64, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(distinctInstance(i))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("instance %d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			var resp PlanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("instance %d: %v", i, err)
				return
			}
			got[i] = resp.Cost
		}(i)
	}
	wg.Wait()
	for i := 0; i < N; i++ {
		if got[i] != want[i] {
			t.Errorf("instance %d: concurrent cost %v, serial %v", i, got[i], want[i])
		}
	}
}

// TestConcurrentIdenticalCachedInstance hammers one identical instance from
// many goroutines so every request after the first races on the shared
// cached tree (and, capacitated, on the shared root basis). All objectives
// must equal the serial reference bit-for-bit.
func TestConcurrentIdenticalCachedInstance(t *testing.T) {
	for _, capacitated := range []bool{false, true} {
		name := "uncapacitated"
		if capacitated {
			name = "capacitated"
		}
		t.Run(name, func(t *testing.T) {
			s := New(Config{Workers: 4, Queue: 64, MaxBudget: time.Minute})
			req := srrpRequest()
			if capacitated {
				req.Capacity = bindingCapacity
				req.ConsumptionRate = 1
			}
			want := serialCost(t, req)

			const N = 16
			var wg sync.WaitGroup
			for i := 0; i < N; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					body, _ := json.Marshal(req)
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
						return
					}
					var resp PlanResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					if resp.Cost != want {
						t.Errorf("request %d: cost %v, serial %v", i, resp.Cost, want)
					}
					if capacitated && resp.Nodes == 0 {
						t.Errorf("request %d: capacitated solve ran no branch-and-bound", i)
					}
				}(i)
			}
			wg.Wait()
			if n := s.cache.len(); n != 1 {
				t.Fatalf("cache holds %d trees for one instance", n)
			}
		})
	}
}

// TestConcurrentStepTenantsNoBleed runs many tenants' rolling steps
// concurrently, interleaved across slots, and checks each tenant's
// decisions match a serial replay of the same tenant alone on a fresh
// daemon — per-tenant state must never leak across tenants. The tenants
// trade on one market, so their re-plans share cached trees, and after
// every step each tenant also sends an srrp join with the same tree inputs,
// which must hit the entry a step re-plan built.
func TestConcurrentStepTenantsNoBleed(t *testing.T) {
	const tenantsN = 6
	const slots = 4

	// Serial reference: each tenant alone on its own daemon.
	want := make([][]PlanResponse, tenantsN)
	for i := 0; i < tenantsN; i++ {
		s := New(Config{Workers: 1, Queue: 8, MaxBudget: time.Minute})
		for slot := 0; slot < slots; slot++ {
			for _, req := range []*PlanRequest{tenantStep(i, slot), tenantJoin(i)} {
				rec, resp := postPlan(t, s, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("serial tenant %d slot %d %s: %d %s", i, slot, req.Model, rec.Code, rec.Body.String())
				}
				want[i] = append(want[i], *resp)
			}
		}
	}

	// Concurrent run: all tenants share one daemon; each tenant's slots
	// stay ordered (a real client serialises its own steps) but tenants
	// interleave freely.
	s := New(Config{Workers: 4, Queue: 64, MaxBudget: time.Minute})
	got := make([][]PlanResponse, tenantsN)
	var wg sync.WaitGroup
	for i := 0; i < tenantsN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for slot := 0; slot < slots; slot++ {
				for _, req := range []*PlanRequest{tenantStep(i, slot), tenantJoin(i)} {
					body, _ := json.Marshal(req)
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Errorf("tenant %d slot %d %s: %d %s", i, slot, req.Model, rec.Code, rec.Body.String())
						return
					}
					var resp PlanResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("tenant %d slot %d %s: %v", i, slot, req.Model, err)
						return
					}
					got[i] = append(got[i], resp)
				}
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < tenantsN; i++ {
		if len(got[i]) != 2*slots {
			t.Fatalf("tenant %d: %d responses", i, len(got[i]))
		}
		for k := range got[i] {
			w, g := want[i][k], got[i][k]
			if g.Cost != w.Cost || g.PlanReuse != w.PlanReuse ||
				derefBool(g.Rent) != derefBool(w.Rent) || derefFloat(g.Generate) != derefFloat(w.Generate) {
				t.Errorf("tenant %d slot %d %s: concurrent %+v, serial %+v", i, k/2, g.Model, g, w)
			}
			if g.Model == "srrp" && !g.CacheHit {
				t.Errorf("tenant %d slot %d: srrp join missed the tree its step built", i, k/2)
			}
		}
	}
	// Every re-plan (slots 0 and 3) and every join has the same tree
	// inputs: one cached tree, which every tenant's plan points at.
	if n := s.cache.len(); n != 1 {
		t.Fatalf("cache holds %d trees for one market state", n)
	}
	tree := s.tenants.get("tenant-0").plan.Tree
	for i := 1; i < tenantsN; i++ {
		if s.tenants.get(fmt.Sprintf("tenant-%d", i)).plan.Tree != tree {
			t.Errorf("tenant %d re-planned on a tree of its own", i)
		}
	}
}

// tenantJoin is an srrp request over the tree tenantStep's re-plans build:
// two stages, the same market, tenant i's first three demands.
func tenantJoin(i int) *PlanRequest {
	step := tenantStep(i, 0)
	req := srrpRequest()
	req.Stages, req.Demand = step.Stages, step.Demand[:step.Stages+1]
	return req
}

// tenantStep builds tenant i's step request for a slot; demand differs per
// tenant so cross-tenant bleed would change objectives, not just telemetry.
func tenantStep(i, slot int) *PlanRequest {
	req := stepRequest(fmt.Sprintf("tenant-%d", i), slot, float64(slot)*0.5)
	for j := range req.Demand {
		req.Demand[j] += float64(i)
	}
	return req
}

func derefBool(b *bool) bool {
	return b != nil && *b
}

func derefFloat(f *float64) float64 {
	if f == nil {
		return -1
	}
	return *f
}
