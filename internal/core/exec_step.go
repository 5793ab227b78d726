package core

import (
	"context"
	"errors"
	"fmt"
)

// This file exports the single-step planning surface the serve layer (and
// any other long-running caller) builds rolling-horizon tenants from: one
// re-plan (PlanStochasticStepCtx) and the walk along a plan between
// re-plans (Follow). The batch executors in exec.go replay a whole price
// trace in one call; a server instead receives one slot's worth of state
// per request and needs exactly one budgeted re-plan at a time, with the
// caller's context — not context.Background() — threaded into the solve so
// client disconnects and per-request deadlines abort it.

// PlanStochasticStepCtx runs one rolling-horizon SRRP re-plan through the
// degradation ladder: a scenario tree is built from cfg.Base and the bids,
// rooted at slot t with the current inventory inv as the initial storage,
// and solved under ctx layered with cfg.Budget and cfg.Faults (see
// ExecConfig.planContext). The lookahead is cfg.TreeStages clamped to the
// end of the horizon.
//
// The returned rung reports how the plan was obtained (RungFull down to
// RungDP); a nil plan with RungOnDemand tells the caller to serve the slot
// just in time and retry at the next slot. An error is returned only for
// invalid inputs — planning failures degrade through the ladder instead.
//
// With ctx == context.Background() the result is bit-identical to the plan
// RunStochastic would compute at the same (t, inv) state.
func PlanStochasticStepCtx(ctx context.Context, cfg *ExecConfig, bids []float64, t int, inv float64) (*StochasticPlan, DegradeRung, error) {
	if err := cfg.validate(); err != nil {
		return nil, RungOnDemand, err
	}
	if len(bids) != len(cfg.Demand) {
		return nil, RungOnDemand, errors.New("core: bids length mismatch")
	}
	if t < 0 || t >= len(cfg.Demand) {
		return nil, RungOnDemand, fmt.Errorf("core: slot %d outside horizon [0,%d)", t, len(cfg.Demand))
	}
	if !isFinite(inv) || inv < 0 {
		return nil, RungOnDemand, fmt.Errorf("core: inventory %v not a finite non-negative number", inv)
	}
	stages := cfg.lookahead(t)
	if stages > 0 && cfg.Base.Len() == 0 {
		return nil, RungOnDemand, errors.New("core: stochastic planning needs a base distribution")
	}
	plan, rung := planStochasticLadder(ctx, cfg, bids, t, stages, inv)
	return plan, rung, nil
}

// Follow extends the executed vertex path through the plan's tree to stage
// k. path[j] is the vertex of stage j and path[0] the root (0); each new
// stage j takes the child of path[j-1] whose state matches the realised
// price and bid that at(j) reports: the out-of-bid child when the bid lost,
// otherwise the kept state with the closest price. Follow returns the
// extended path, and false with the path as far as it got when stage k lies
// past a leaf or at a vertex the plan holds no decisions for (a plan whose
// Alpha and Chi keep only a prefix of the tree's vertices). The batch
// executors and the serve layer's rolling tenants walk their plans with it.
func (p *StochasticPlan) Follow(path []int, k int, at func(stage int) (actual, bid float64)) ([]int, bool) {
	for len(path) <= k {
		actual, bid := at(len(path))
		next := matchChild(p.Tree, path[len(path)-1], actual, bid)
		if next < 0 || next >= len(p.Alpha) {
			return path, false
		}
		path = append(path, next)
	}
	return path, true
}
