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
	// arguments and must return the tree Build would, which the plan then
	// shares and nobody may modify. nil calls scenario.Build. A caller that
	// re-plans many tenants against one market shares trees through it.
	BuildTree func(base stats.Discrete, bids []float64, onDemand float64, cfg scenario.BuildConfig) (*scenario.Tree, error)
	// Replan is the rolling-horizon stride for the stochastic policy: a new
	// SRRP is solved every Replan slots (paper: "a revised plan is issued
	// periodically"). ≤0 means every slot.
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plan, err := SolveDRRP(cfg.Par, cfg.Actual, cfg.Demand)
	if err != nil {
		return nil, err
	}
	out, err := execute(cfg, func(t int, inv float64) decision {
		return decision{rent: plan.Chi[t], alpha: plan.Alpha[t], payRate: cfg.Actual[t]}
	})
	if err == nil {
		out.Replans = 1
	}
	return out, err
}

// RunOnDemand evaluates the pure on-demand policy: plan and pay at the
// fixed rate λ, ignoring the spot market entirely.
func RunOnDemand(cfg *ExecConfig) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lambda, err := cfg.Par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	prices := constants(len(cfg.Demand), lambda)
	plan, err := SolveDRRP(cfg.Par, prices, cfg.Demand)
	if err != nil {
		return nil, err
	}
	out, err := execute(cfg, func(t int, inv float64) decision {
		return decision{rent: plan.Chi[t], alpha: plan.Alpha[t], payRate: lambda}
	})
	if err == nil {
		out.Replans = 1
	}
	return out, err
}

// RunDeterministic evaluates the DRRP-based spot policy ("det-predict" /
// "det-exp-mean"): a single DRRP is solved over the horizon taking the bid
// prices as fixed cost parameters; execution bids bids[t] in each rented
// slot, paying the spot price when the bid wins (uniform-price auction) and
// falling back to an on-demand instance when out of bid.
func RunDeterministic(cfg *ExecConfig, bids []float64) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(bids) != len(cfg.Demand) {
		return nil, errors.New("core: bids length mismatch")
	}
	lambda, err := cfg.Par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	plan, err := SolveDRRP(cfg.Par, bids, cfg.Demand)
	if err != nil {
		return nil, err
	}
	out, err := execute(cfg, func(t int, inv float64) decision {
		rate := cfg.Actual[t]
		oob := bids[t] < cfg.Actual[t]
		if oob {
			rate = lambda // out-of-bid: fall back to on-demand
		}
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
	stride := cfg.Replan
	if stride <= 0 {
		stride = 1
	}
	lookahead := cfg.TreeStages
	if lookahead < 0 {
		lookahead = 0
	}
	T := len(cfg.Demand)
	var plan *StochasticPlan
	var planStart int  // slot of the plan's root
	var planPath []int // executed vertex path within the plan's tree
	var degs []Degradation
	replanAt := 0
	replans := 0
	out, outErr := execute(cfg, func(t int, inv float64) decision {
		if t >= replanAt || plan == nil {
			stages := lookahead
			if t+stages >= T {
				stages = T - 1 - t
			}
			replans++
			if cfg.degradable() {
				var rung DegradeRung
				plan, rung = planStochasticLadder(context.Background(), cfg, bids, t, stages, inv)
				if rung != RungFull {
					degs = append(degs, Degradation{Slot: t, Rung: rung})
				}
				if plan == nil {
					// Bottom rung: serve this slot just in time and retry
					// planning at the next.
					replanAt = t + 1
					need := math.Max(0, cfg.Demand[t]-inv)
					return decision{rent: need > 0, alpha: need, payRate: cfg.Actual[t]}
				}
			} else {
				var err2 error
				plan, err2 = planStochastic(context.Background(), cfg, bids, t, stages, inv)
				if err2 != nil || plan == nil {
					// Defensive fallback: just-in-time rental at the spot price.
					plan = nil
					replanAt = t + 1
					need := math.Max(0, cfg.Demand[t]-inv)
					return decision{rent: need > 0, alpha: need, payRate: cfg.Actual[t]}
				}
			}
			planStart = t
			planPath = []int{0}
			replanAt = t + stride
		}
		// Advance along the tree path matching the realised prices.
		k := t - planStart
		for len(planPath) <= k {
			v := planPath[len(planPath)-1]
			next := matchChild(plan.Tree, v, cfg.Actual[planStart+len(planPath)], bids[planStart+len(planPath)], lambda)
			if next < 0 {
				// Horizon exhausted: force a replan at this slot.
				plan = nil
				replanAt = t
				need := math.Max(0, cfg.Demand[t]-inv)
				return decision{rent: need > 0, alpha: need, payRate: cfg.Actual[t]}
			}
			planPath = append(planPath, next)
		}
		v := planPath[k]
		rate := cfg.Actual[t]
		oob := false
		if k > 0 && bids[t] < cfg.Actual[t] {
			rate = lambda // recourse stage lost the auction
			oob = true
		}
		return decision{rent: plan.Chi[v], alpha: plan.Alpha[v], payRate: rate, outOfBid: oob}
	})
	if outErr == nil {
		out.Replans = replans
		out.Degradations = degs
	}
	return out, outErr
}

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
// with the closest price.
func matchChild(tr *scenario.Tree, v int, actual, bid, lambda float64) int {
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
