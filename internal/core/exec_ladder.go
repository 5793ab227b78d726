package core

import (
	"context"

	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

// This file implements the graceful-degradation ladder of the rolling-horizon
// executor. When a planning budget (ExecConfig.Budget) or a fault injector is
// configured, every per-slot re-solve runs under a deadline and degrades
// through four rungs instead of failing:
//
//	RungFull      — the budgeted solve finished with a proven optimum.
//	RungIncumbent — the solve hit the deadline (or was canceled) but left an
//	                incumbent whose proven gap is within maxDegradedGap.
//	RungDP        — the budgeted solve failed outright (or its incumbent was
//	                too loose); re-plan with the exact uncapacitated DP on the
//	                expected effective price path, which always finishes in
//	                microseconds.
//	RungOnDemand  — even the DP failed; fall back to just-in-time rental for
//	                one slot and retry planning at the next.
//
// Without a budget and injector the rolling loop does not arm the ladder
// (degradable, checked at every re-plan): a failed solve serves the slot
// just in time.

// DegradeRung identifies a rung of the planning degradation ladder.
type DegradeRung int8

const (
	// RungFull is the normal outcome: a proven-optimal plan within budget.
	RungFull DegradeRung = iota
	// RungIncumbent accepts a deadline-expired incumbent within the gap
	// tolerance.
	RungIncumbent
	// RungDP re-plans with the exact dynamic program on the expected
	// effective price path.
	RungDP
	// RungOnDemand serves one slot just in time at the effective spot rate.
	RungOnDemand
)

func (r DegradeRung) String() string {
	switch r {
	case RungFull:
		return "full"
	case RungIncumbent:
		return "incumbent"
	case RungDP:
		return "dp"
	case RungOnDemand:
		return "on-demand"
	}
	return "unknown"
}

// Degradation records one non-full rung taken while executing a policy.
type Degradation struct {
	// Slot is the evaluation slot whose re-plan degraded.
	Slot int
	// Rung is the ladder rung that produced the slot's plan.
	Rung DegradeRung
}

// degradable reports whether the degradation ladder is armed. The ladder is
// deliberately opt-in: with neither a budget nor an injector the executor
// must reproduce the historical (error → just-in-time fallback) behaviour
// bit for bit.
func (c *ExecConfig) degradable() bool { return c.Budget > 0 || c.Faults != nil }

// maxDegradedGap is the largest proven optimality gap at which a
// deadline-expired incumbent is accepted (RungIncumbent): loose enough to
// keep a near-optimal plan, tight enough to reject an incumbent the search
// had barely started on.
const maxDegradedGap = 0.05

// planContext derives the context for one rolling-horizon re-solve from the
// caller's context: the planning budget becomes a deadline layered on top of
// whatever deadline or cancellation parent already carries, and the fault
// injector (tests only) may replace it with an expired or canceled context.
// The batch executors pass context.Background(), which reproduces the
// historical behaviour bit for bit; a server passes the request context so
// a disconnecting client aborts the solve.
func (c *ExecConfig) planContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx := parent
	cancel := context.CancelFunc(func() {})
	if c.Budget > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.Budget)
	}
	if c.Faults != nil {
		budgetCancel := cancel
		var faultCancel context.CancelFunc
		ctx, faultCancel, _ = c.Faults.PlanContext(ctx)
		cancel = func() { faultCancel(); budgetCancel() }
	}
	return ctx, cancel
}

// planStochasticLadder runs one SRRP re-plan through the ladder. A nil plan
// with RungOnDemand tells the caller to serve the slot just in time.
func planStochasticLadder(parent context.Context, cfg *ExecConfig, bids []float64, t, stages int, inv float64) (*StochasticPlan, DegradeRung) {
	ctx, cancel := cfg.planContext(parent)
	defer cancel()
	plan, err := planStochastic(ctx, cfg, bids, t, stages, inv)
	if err == nil && plan != nil {
		if !plan.Degraded {
			return plan, RungFull
		}
		if plan.Gap <= maxDegradedGap {
			return plan, RungIncumbent
		}
	}
	if dp, err2 := fallbackStochasticChain(cfg, bids, t, stages, inv); err2 == nil {
		return dp, RungDP
	}
	return nil, RungOnDemand
}

// fallbackStochasticChain is the ladder's rung-3 planner for the stochastic
// policy: collapse the scenario tree to the expected effective price path —
// stage k priced at E[p·1{p≤bid}] + λ·P(p>bid), exactly the per-state
// effective prices of Eq. (10) in expectation — and solve the resulting
// deterministic chain with the exact DP, ignoring any bottleneck constraint.
// The result is wrapped as a linear-chain StochasticPlan so the executor's
// tree-path following works unchanged.
func fallbackStochasticChain(cfg *ExecConfig, bids []float64, t, stages int, inv float64) (*StochasticPlan, error) {
	par := cfg.Par
	par.Epsilon = inv
	par.Capacity = nil
	par.ConsumptionRate = 0
	lambda, err := par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	dem := cfg.Demand[t : t+stages+1]
	prices := make([]float64, stages+1)
	prices[0] = cfg.Actual[t] // the current price is known
	for k := 1; k <= stages; k++ {
		prices[k] = expectedEffectivePrice(cfg.Base, bids[t+k], lambda)
	}
	plan, err := SolveDRRP(par, prices, dem)
	if err != nil {
		return nil, err
	}
	n := stages + 1
	tr := &scenario.Tree{
		Parent:   make([]int, n),
		Prob:     make([]float64, n),
		Stage:    make([]int, n),
		Price:    prices,
		OutOfBid: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		tr.Parent[v] = v - 1
		tr.Prob[v] = 1
		tr.Stage[v] = v
	}
	return assembleStochasticPlan(par, tr, dem, plan.Alpha, plan.Beta, plan.Chi), nil
}

// expectedEffectivePrice is the mean cost of holding the instance for one
// slot under bid b: the spot price where the bid wins, the on-demand rate λ
// where it loses (Eq. 10 in expectation over the base distribution).
func expectedEffectivePrice(base stats.Discrete, bid, lambda float64) float64 {
	e := 0.0
	for i, v := range base.Values {
		if v <= bid {
			e += base.Probs[i] * v
		} else {
			e += base.Probs[i] * lambda
		}
	}
	return e
}
