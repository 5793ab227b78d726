package core

import (
	"context"
	"testing"
	"time"

	"rentplan/internal/demand"
	"rentplan/internal/market"
)

func stepFixture(t *testing.T) (*ExecConfig, []float64) {
	t.Helper()
	const T = 12
	cfg := &ExecConfig{
		Par:        DefaultParams(market.C1Medium),
		Actual:     constants(T, 0.06),
		Demand:     demand.Series(demand.NewTruncNormal(0.4, 0.2, 11), T),
		Base:       baseDist(),
		TreeStages: 3,
		Budget:     time.Minute,
	}
	return cfg, constants(T, 0.062)
}

// TestPlanStochasticStepMatchesBatch anchors the exported single-step entry
// point to the batch executor: the plan it returns at slot 0 must be
// bit-identical (tree, decisions, expected cost) to the plan the first
// replan inside RunStochastic computes, since the serve layer's rolling
// tenants replace that loop one request at a time.
func TestPlanStochasticStepMatchesBatch(t *testing.T) {
	cfg, bids := stepFixture(t)
	plan, rung, err := PlanStochasticStepCtx(context.Background(), cfg, bids, 0, cfg.Par.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	if rung != RungFull || plan == nil {
		t.Fatalf("rung %v, plan %v", rung, plan)
	}
	batch, err := planStochastic(context.Background(), cfg, bids, 0, cfg.TreeStages, cfg.Par.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExpCost != batch.ExpCost {
		t.Fatalf("step ExpCost %v != batch %v", plan.ExpCost, batch.ExpCost)
	}
	for v := range plan.Alpha {
		if plan.Alpha[v] != batch.Alpha[v] || plan.Chi[v] != batch.Chi[v] {
			t.Fatalf("vertex %d: step (%v,%v) != batch (%v,%v)",
				v, plan.Alpha[v], plan.Chi[v], batch.Alpha[v], batch.Chi[v])
		}
	}

	// Follow takes the child matchChild picks, stops past a leaf, and stops
	// at the vertices a plan keeps decisions for.
	at := func(int) (float64, float64) { return 0.058, bids[1] }
	path, ok := plan.Follow([]int{0}, 1, at)
	if want := matchChild(plan.Tree, 0, 0.058, bids[1]); !ok || len(path) != 2 || path[1] != want {
		t.Fatalf("Follow to stage 1 = %v, %v; want [0 %d], true", path, ok, want)
	}
	path, ok = plan.Follow(path, cfg.TreeStages+1, at)
	if ok || len(path) != cfg.TreeStages+1 || plan.Tree.Stage[path[cfg.TreeStages]] != cfg.TreeStages {
		t.Fatalf("Follow past the leaves = %v, %v; want a path to a leaf and false", path, ok)
	}
	kept := *plan
	kept.Alpha, kept.Chi = plan.Alpha[:1], plan.Chi[:1]
	if path, ok = kept.Follow([]int{0}, 1, at); ok || len(path) != 1 {
		t.Fatalf("Follow past the kept root = %v, %v; want [0], false", path, ok)
	}
}

// TestPlanStochasticStepThreadsContext proves the request context actually
// reaches the solve: an already-canceled caller context must push the ladder
// off RungFull (the budgeted SRRP observes the cancellation and the DP
// fallback takes over), never hang or error.
func TestPlanStochasticStepThreadsContext(t *testing.T) {
	cfg, bids := stepFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, rung, err := PlanStochasticStepCtx(ctx, cfg, bids, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rung == RungFull {
		t.Fatal("canceled context still produced a full-rung plan")
	}
	if rung == RungDP && plan == nil {
		t.Fatal("DP rung must carry a plan")
	}
}

// TestPlanStochasticStepValidates covers the input guards.
func TestPlanStochasticStepValidates(t *testing.T) {
	cfg, bids := stepFixture(t)
	if _, _, err := PlanStochasticStepCtx(context.Background(), cfg, bids[:3], 0, 0); err == nil {
		t.Fatal("bids length mismatch accepted")
	}
	if _, _, err := PlanStochasticStepCtx(context.Background(), cfg, bids, len(cfg.Demand), 0); err == nil {
		t.Fatal("out-of-horizon slot accepted")
	}
	if _, _, err := PlanStochasticStepCtx(context.Background(), cfg, bids, 0, -1); err == nil {
		t.Fatal("negative inventory accepted")
	}
}
