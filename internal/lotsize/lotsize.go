// Package lotsize provides exact polynomial-time solvers for the
// uncapacitated lot-sizing structures underlying the paper's planning
// models. DRRP (Sec. III-C) without the bottleneck constraint (3) is the
// classic dynamic lot-sizing problem, solved here by a time-varying-cost
// Wagner–Whitin dynamic program; the deterministic equivalent of SRRP
// (Sec. IV-E) without constraint (15) is stochastic uncapacitated
// lot-sizing on a scenario tree, solved by an ancestor-key dynamic program.
// The paper's evaluation (Sec. V-A) omits both capacity constraints, so
// these solvers cover every experiment exactly while remaining orders of
// magnitude faster than branch-and-bound; internal/core falls back to the
// MILP path when capacities are active.
package lotsize

import (
	"errors"
	"fmt"
	"math"
)

// ChainProblem is deterministic uncapacitated lot-sizing over T slots:
//
//	min Σ_t Setup_t·χ_t + Unit_t·α_t + Hold_t·β_t
//	s.t. β_{t−1} + α_t − β_t = Demand_t,  β_{-1} = InitialInventory,
//	     α_t ≥ 0, β_t ≥ 0, χ_t = 1{α_t > 0}.
//
// Hold_t is charged on the inventory held at the END of slot t.
type ChainProblem struct {
	Setup  []float64
	Unit   []float64
	Hold   []float64
	Demand []float64
	// InitialInventory is the ε of DRRP constraint (5).
	InitialInventory float64
}

// T returns the number of slots.
func (p *ChainProblem) T() int { return len(p.Demand) }

func (p *ChainProblem) validate() error {
	T := p.T()
	if T == 0 {
		return errors.New("lotsize: empty horizon")
	}
	if len(p.Setup) != T || len(p.Unit) != T || len(p.Hold) != T {
		return fmt.Errorf("lotsize: length mismatch: setup=%d unit=%d hold=%d demand=%d",
			len(p.Setup), len(p.Unit), len(p.Hold), T)
	}
	if !usable(p.InitialInventory) {
		return fmt.Errorf("lotsize: initial inventory %g is not finite and nonnegative", p.InitialInventory)
	}
	for t := 0; t < T; t++ {
		if what := badDatum(p.Setup[t], p.Unit[t], p.Hold[t], p.Demand[t]); what != "" {
			return fmt.Errorf("lotsize: slot %d %s is not finite and nonnegative", t, what)
		}
	}
	return nil
}

// usable reports whether x is a finite, nonnegative cost or demand datum;
// NaN and ±Inf fail both comparisons.
func usable(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// badDatum names the first of a slot's or vertex's cost and demand data that
// is negative, NaN or infinite, or returns "" when all four are usable.
func badDatum(setup, unit, hold, demand float64) string {
	switch {
	case !usable(setup):
		return "setup cost"
	case !usable(unit):
		return "unit cost"
	case !usable(hold):
		return "holding cost"
	case !usable(demand):
		return "demand"
	}
	return ""
}

// ChainSolution is an optimal plan for a ChainProblem.
type ChainSolution struct {
	// Cost is the optimal objective value (including the holding cost of
	// carrying the initial inventory).
	Cost float64
	// Produce is α_t, Setup is χ_t, Inventory is β_t (end of slot).
	Produce   []float64
	Setup     []bool
	Inventory []float64
}

// SolveChain solves the problem exactly by a Wagner–Whitin dynamic program
// over regeneration intervals, O(T²).
func SolveChain(p *ChainProblem) (*ChainSolution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	T := p.T()
	// Net the initial inventory ε against the earliest demands and account
	// for the holding cost of the leftover ε separately (a constant).
	net := make([]float64, T)
	constCost := 0.0
	cum := 0.0
	for t := 0; t < T; t++ {
		cum += p.Demand[t]
		// Demand in slot t not covered by ε.
		net[t] = math.Min(p.Demand[t], math.Max(0, cum-p.InitialInventory))
		leftover := math.Max(0, p.InitialInventory-cum)
		constCost += p.Hold[t] * leftover
	}
	// H[t] = Σ_{τ ≤ t} Hold_τ; H[-1] = 0 conceptually.
	H := make([]float64, T+1) // H[t+1] = Σ_{τ ≤ t} hold
	for t := 0; t < T; t++ {
		H[t+1] = H[t] + p.Hold[t]
	}
	// G[j+1] = min cost to cover net demands of slots 0..j; G[0] = 0.
	// intervalCost[i] is maintained incrementally as Setup_i plus the cost
	// of producing at i every net demand of slots i..j (unit + holding over
	// the end of slots i..k−1, i.e. H[k] − H[i]).
	G := make([]float64, T+1)
	from := make([]int, T+1) // from[j+1]: production slot of the last interval, or -1
	intervalCost := make([]float64, T)
	for j := 1; j <= T; j++ {
		G[j] = math.Inf(1)
	}
	for j := 0; j < T; j++ {
		intervalCost[j] = p.Setup[j]
		from[j+1] = -1
		if net[j] == 0 && G[j] < G[j+1] { //lint:ignore rentlint/floatcmp net demand is produced by max(0,·) clamping, so "no demand" is exactly zero
			// No new demand: extend the previous plan for free.
			G[j+1] = G[j]
		}
		for i := 0; i <= j; i++ {
			if net[j] > 0 {
				intervalCost[i] += net[j] * (p.Unit[i] + (H[j] - H[i]))
			}
			if v := G[i] + intervalCost[i]; v < G[j+1] {
				G[j+1] = v
				from[j+1] = i
			}
		}
	}
	if math.IsInf(G[T], 1) {
		return nil, errors.New("lotsize: no feasible plan (internal error)")
	}
	sol := &ChainSolution{
		Cost:      G[T] + constCost,
		Produce:   make([]float64, T),
		Setup:     make([]bool, T),
		Inventory: make([]float64, T),
	}
	// Reconstruct production decisions by walking the regeneration chain.
	pos := T
	for pos > 0 {
		i := from[pos]
		if i < 0 {
			// Zero-demand slot bridged without production.
			pos--
			continue
		}
		total := 0.0
		for k := i; k < pos; k++ {
			total += net[k]
		}
		if total > 0 {
			sol.Produce[i] = total
			sol.Setup[i] = true
		}
		pos = i
	}
	// Inventory from the balance equation with the ORIGINAL demands.
	inv := p.InitialInventory
	for t := 0; t < T; t++ {
		inv = inv + sol.Produce[t] - p.Demand[t]
		if inv < 0 && inv > -1e-9 {
			inv = 0
		}
		sol.Inventory[t] = inv
	}
	return sol, nil
}
