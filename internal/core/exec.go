package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"rentplan/internal/core/faults"
	"rentplan/internal/num"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

// ExecConfig describes one spot-market evaluation run: a realised hourly
// price trace, the demand series, and the planning configuration shared by
// every policy (Sec. V-C).
type ExecConfig struct {
	Par Params
	// Actual is the realised hourly spot price over the evaluation horizon.
	Actual []float64
	// Demand is the hourly demand over the same horizon.
	Demand []float64
	// Base is the summarised historical price distribution used for
	// scenario-tree construction (Sec. IV-C).
	Base stats.Discrete
	// TreeStages is the SRRP lookahead beyond the current slot (paper: a
	// 6-hour planning horizon, i.e. 5 future stages after the known root).
	TreeStages int
	// MaxBranch caps the scenario-tree branching (0 = uncapped).
	MaxBranch int
	// BuildTree, when set, supplies the scenario tree of every stochastic
	// re-plan in place of scenario.Build: it is called with Build's
	// arguments and must return the tree Build would. nil calls
	// scenario.Build. A caller that re-plans many tenants against one
	// market shares trees through it, so two rules hold: a tree is
	// immutable once built (plans point into it and nobody may modify it),
	// and BuildTree must be safe for concurrent use.
	BuildTree func(base stats.Discrete, bids []float64, onDemand float64, cfg scenario.BuildConfig) (*scenario.Tree, error)
	// Replan is the rolling-horizon stride for the stochastic policy: a new
	// SRRP is solved every Replan slots (paper: "a revised plan is issued
	// periodically"). ≤0 means every slot. A plan holds decisions for
	// TreeStages+1 slots, and the slot after them re-plans whatever the
	// stride, so a stride longer than TreeStages+1 acts as TreeStages+1.
	Replan int
	// Budget caps the wall-clock time of every rolling-horizon re-solve.
	// When positive, a re-solve that exceeds it degrades through the ladder
	// of exec_ladder.go instead of stalling the executor; zero disables the
	// ladder and reproduces the historical behaviour exactly.
	Budget time.Duration
	// Faults injects deterministic planning failures (tests only); non-nil
	// arms the degradation ladder even without a Budget.
	Faults *faults.Injector
}

func (c *ExecConfig) validate() error {
	if err := c.Par.validate(); err != nil {
		return err
	}
	if len(c.Actual) == 0 || len(c.Actual) != len(c.Demand) {
		return fmt.Errorf("core: actual/demand lengths %d/%d", len(c.Actual), len(c.Demand))
	}
	for t := range c.Actual {
		// The finiteness checks are load-bearing: NaN slips past the sign
		// comparisons below (NaN <= 0 and NaN < 0 are both false) and +Inf
		// prices pass them outright, then corrupt every downstream cost sum.
		if !isFinite(c.Actual[t]) || c.Actual[t] <= 0 {
			return fmt.Errorf("core: spot price %v at slot %d not a finite positive number", c.Actual[t], t)
		}
		if !isFinite(c.Demand[t]) || c.Demand[t] < 0 {
			return fmt.Errorf("core: demand %v at slot %d not a finite non-negative number", c.Demand[t], t)
		}
	}
	return nil
}

// Outcome is the realised result of executing a policy against the actual
// price trace.
type Outcome struct {
	// Cost is the realised total cost.
	Cost float64
	// Breakdown decomposes the realised cost.
	Breakdown CostBreakdown
	// RentSlots counts slots where an instance was rented; OutOfBidSlots
	// counts rented slots served by an on-demand instance because the bid
	// lost the auction.
	RentSlots, OutOfBidSlots int
	// Replans counts how many times a plan was (re)solved while executing
	// the policy: 1 for the plan-once policies, and one count per
	// rolling-horizon re-solve for the stochastic/rolling policies.
	Replans int
	// Degradations records every re-plan that fell below RungFull on the
	// degradation ladder (budgeted runs only; empty otherwise).
	Degradations []Degradation
}

// decision is a policy's per-slot output: whether to rent, how much data to
// generate, the compute rate actually charged when renting, and whether the
// slot was served by an on-demand fallback after losing the auction.
type decision struct {
	rent     bool
	alpha    float64
	payRate  float64
	outOfBid bool
}

// execute replays per-slot decisions against the actual prices. The
// executor enforces demand feasibility: if the decision under-produces, an
// emergency correction rents (at the slot's effective rate) and generates
// the shortfall, so every policy always meets the service constraint (2).
func execute(cfg *ExecConfig, decide func(t int, inv float64) decision) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	out := &Outcome{}
	par := cfg.Par
	inv := par.Epsilon
	lambda, err := par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	for t := range cfg.Actual {
		d := decide(t, inv)
		if d.alpha < 0 {
			d.alpha = 0
		}
		if d.alpha > 0 && !d.rent {
			d.rent = true // generation requires an instance
		}
		// Emergency correction: never violate the inventory balance.
		if short := cfg.Demand[t] - inv - d.alpha; short > num.DemandTol {
			d.alpha += short
			if !d.rent {
				d.rent = true
				d.payRate = math.Min(cfg.Actual[t], lambda)
			}
		}
		if d.rent {
			out.RentSlots++
			if d.outOfBid {
				out.OutOfBidSlots++
			}
			out.Breakdown.Compute += d.payRate
		}
		inv = inv + d.alpha - cfg.Demand[t]
		if inv < 0 {
			inv = 0 // numeric guard; shortfall already corrected
		}
		out.Breakdown.TransferIn += par.UnitGenCost() * d.alpha
		out.Breakdown.Holding += par.HoldingCost() * inv
		out.Breakdown.TransferOut += par.Pricing.TransferOutPerGB * cfg.Demand[t]
	}
	out.Cost = out.Breakdown.Total()
	return out, nil
}

// RunOracle evaluates the ideal-case policy: DRRP solved with the actual
// realised spot prices (perfect information). Its cost is the baseline that
// Fig. 12(a) measures overpay against.
func RunOracle(cfg *ExecConfig) (*Outcome, error) {
	return runPlanOnce(cfg,
		func(float64) []float64 { return cfg.Actual },
		func(t int, _ float64) (float64, bool) { return cfg.Actual[t], false })
}

// RunOnDemand evaluates the pure on-demand policy: plan and pay at the
// fixed rate λ, ignoring the spot market entirely.
func RunOnDemand(cfg *ExecConfig) (*Outcome, error) {
	return runPlanOnce(cfg,
		func(lambda float64) []float64 { return constants(len(cfg.Demand), lambda) },
		func(_ int, lambda float64) (float64, bool) { return lambda, false })
}

// RunDeterministic evaluates the DRRP-based spot policy ("det-predict" /
// "det-exp-mean"): a single DRRP is solved over the horizon taking the bid
// prices as fixed cost parameters; execution bids bids[t] in each rented
// slot, paying the spot price when the bid wins (uniform-price auction) and
// falling back to an on-demand instance when out of bid.
func RunDeterministic(cfg *ExecConfig, bids []float64) (*Outcome, error) {
	return runPlanOnce(cfg, func(float64) []float64 { return bids }, func(t int, lambda float64) (float64, bool) {
		if bids[t] < cfg.Actual[t] {
			return lambda, true // out of bid: fall back to on-demand
		}
		return cfg.Actual[t], false
	})
}

// runPlanOnce executes a plan-once policy: one DRRP over the whole horizon
// at the prices planAt returns for the on-demand rate λ, each rented slot
// charged the rate pay returns and counted out of bid when pay says so.
func runPlanOnce(cfg *ExecConfig, planAt func(lambda float64) []float64, pay func(t int, lambda float64) (rate float64, outOfBid bool)) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lambda, err := cfg.Par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	prices := planAt(lambda)
	if len(prices) != len(cfg.Demand) {
		return nil, errors.New("core: bids length mismatch")
	}
	plan, err := SolveDRRP(cfg.Par, prices, cfg.Demand)
	if err != nil {
		return nil, err
	}
	out, err := execute(cfg, func(t int, _ float64) decision {
		rate, oob := pay(t, lambda)
		return decision{rent: plan.Chi[t], alpha: plan.Alpha[t], payRate: rate, outOfBid: oob}
	})
	if err == nil {
		out.Replans = 1
	}
	return out, err
}

// RunStochastic evaluates the SRRP-based spot policy ("sto-predict" /
// "sto-exp-mean") in a rolling-horizon fashion: every Replan slots a
// scenario tree is built from the base distribution and the bids (Eq. 10),
// SRRP is solved, and the here-and-now stage decisions are executed. The
// root state carries the known current spot price, so the current slot is
// never out of bid; future stages hedge against the λ-priced out-of-bid
// states.
func RunStochastic(cfg *ExecConfig, bids []float64) (*Outcome, error) {
	return runRolling(context.Background(), cfg, bids, max(cfg.Replan, 1), false)
}

// RunStochasticEvents evaluates the SRRP spot policy with event-driven
// re-plans instead of a fixed stride: a plan is followed until the realised
// price crosses the bid (the in-bid/out-of-bid regime its tree was built
// around flips) or the executed path reaches past a leaf of its tree, so
// slots between those events cost no solve. ExecConfig.Replan is ignored;
// everything else (budget ladder, faults, tree shape) behaves as in
// RunStochastic, and on a trace whose price never crosses the bid the
// result equals RunStochastic's with Replan = TreeStages+1.
func RunStochasticEvents(cfg *ExecConfig, bids []float64) (*Outcome, error) {
	return runRolling(context.Background(), cfg, bids, math.MaxInt, true)
}

// RunStochasticEventsCtx is RunStochasticEvents under a caller context: each
// re-plan solve runs under ctx (layered with cfg.Budget when set), and a
// cancellation aborts the run with ctx's error instead of silently degrading
// every remaining slot. With ctx == context.Background() the result is
// bit-identical to RunStochasticEvents.
func RunStochasticEventsCtx(ctx context.Context, cfg *ExecConfig, bids []float64) (*Outcome, error) {
	return runRolling(ctx, cfg, bids, math.MaxInt, true)
}

// runRolling is the rolling-horizon loop of the stochastic policy (Sec. V):
// re-plan at the current slot on the bid-adjusted tree rooted there,
// execute the decisions of the vertices the realised prices walk through
// (Follow), and re-plan at slot t when stride slots have passed since the
// plan's root, when onCross is set and the realised price crossed the bid
// between t-1 and t, when the path would leave the plan's tree, or when the
// last re-plan failed. A slot without a plan is served just in time. Every
// re-plan solves under ctx; once ctx is done the remaining slots are served
// just in time and the run fails with ctx's error.
func runRolling(ctx context.Context, cfg *ExecConfig, bids []float64, stride int, onCross bool) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(bids) != len(cfg.Demand) {
		return nil, errors.New("core: bids length mismatch")
	}
	if cfg.Base.Len() == 0 {
		return nil, errors.New("core: stochastic policy needs a base distribution")
	}
	lambda, err := cfg.Par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	var plan *StochasticPlan
	var planStart int // slot of the plan's root
	var path []int    // executed vertex path within the plan's tree
	var degs []Degradation
	replans := 0
	aborted := false
	lost := func(t int) bool { return bids[t] < cfg.Actual[t] }
	at := func(k int) (float64, float64) { return cfg.Actual[planStart+k], bids[planStart+k] }
	// replan solves at slot t, through the degradation ladder when cfg arms
	// it; nil serves the slot just in time and re-plans at the next.
	replan := func(t int, inv float64) *StochasticPlan {
		replans++
		stages := cfg.lookahead(t)
		if !cfg.degradable() {
			p, err := planStochastic(ctx, cfg, bids, t, stages, inv)
			if err != nil {
				return nil
			}
			return p
		}
		p, rung := planStochasticLadder(ctx, cfg, bids, t, stages, inv)
		if rung != RungFull {
			degs = append(degs, Degradation{Slot: t, Rung: rung})
		}
		return p
	}
	out, outErr := execute(cfg, func(t int, inv float64) decision {
		if aborted = aborted || ctx.Err() != nil; aborted {
			return justInTime(cfg, t, inv)
		}
		k := t - planStart
		crossed := onCross && t > 0 && lost(t) != lost(t-1)
		ok := plan != nil && k < stride && !crossed
		if ok {
			path, ok = plan.Follow(path, k, at)
		}
		if !ok {
			if plan = replan(t, inv); plan == nil {
				return justInTime(cfg, t, inv)
			}
			planStart, path, k = t, append(path[:0], 0), 0
		}
		v := path[k]
		if k > 0 && lost(t) {
			// A recourse stage that lost the auction runs on demand.
			return decision{rent: plan.Chi[v], alpha: plan.Alpha[v], payRate: lambda, outOfBid: true}
		}
		return decision{rent: plan.Chi[v], alpha: plan.Alpha[v], payRate: cfg.Actual[t]}
	})
	if aborted {
		return nil, ctx.Err()
	}
	if outErr == nil {
		out.Replans = replans
		out.Degradations = degs
	}
	return out, outErr
}

// justInTime serves slot t without a plan: it produces exactly what the
// inventory lacks, renting at the slot's spot price only when that is more
// than zero.
func justInTime(cfg *ExecConfig, t int, inv float64) decision {
	need := math.Max(0, cfg.Demand[t]-inv)
	return decision{rent: need > 0, alpha: need, payRate: cfg.Actual[t]}
}

// lookahead is the number of tree stages a re-plan at slot t builds:
// TreeStages, at least 0 and cut at the end of the horizon.
func (c *ExecConfig) lookahead(t int) int { return max(0, min(c.TreeStages, len(c.Demand)-1-t)) }

// planStochastic builds (through cfg.BuildTree when set) the bid-adjusted
// tree rooted at slot t and solves SRRP with the current inventory as ε.
func planStochastic(ctx context.Context, cfg *ExecConfig, bids []float64, t, stages int, inv float64) (*StochasticPlan, error) {
	par := cfg.Par
	par.Epsilon = inv
	dem := cfg.Demand[t : t+stages+1]
	if stages == 0 {
		// Single-slot tail: a trivial one-vertex tree.
		tr := &scenario.Tree{
			Parent: []int{-1}, Prob: []float64{1}, Stage: []int{0},
			Price: []float64{cfg.Actual[t]}, OutOfBid: []bool{false},
		}
		return SolveSRRPCtx(ctx, par, tr, dem)
	}
	lambda, err := par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	build := cfg.BuildTree
	if build == nil {
		build = scenario.Build
	}
	tr, err := build(cfg.Base, bids[t+1:t+stages+1], lambda, scenario.BuildConfig{
		Stages:    stages,
		MaxBranch: cfg.MaxBranch,
		RootPrice: cfg.Actual[t],
	})
	if err != nil {
		return nil, err
	}
	return SolveSRRPCtx(ctx, par, tr, dem)
}

// matchChild finds the child of v whose state corresponds to the realised
// price: the out-of-bid child when the bid lost, otherwise the kept state
// with the closest price; -1 when v is a leaf.
func matchChild(tr *scenario.Tree, v int, actual, bid float64) int {
	best, bestDist := -1, math.Inf(1)
	lost := bid < actual
	for c := v + 1; c < tr.N(); c++ {
		if tr.Parent[c] != v {
			continue
		}
		if lost {
			if tr.OutOfBid[c] {
				return c
			}
			// No OOB child modelled (bid topped the base support): fall
			// through to nearest-price matching.
		}
		if !tr.OutOfBid[c] {
			if d := math.Abs(tr.Price[c] - actual); d < bestDist {
				best, bestDist = c, d
			}
		}
	}
	if best < 0 {
		// Only an OOB child exists; use it.
		for c := v + 1; c < tr.N(); c++ {
			if tr.Parent[c] == v {
				return c
			}
		}
	}
	return best
}
