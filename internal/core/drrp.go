package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rentplan/internal/lotsize"
	"rentplan/internal/mip"
	"rentplan/internal/num"
)

// Plan is a deterministic rental plan over a fixed horizon: the solution of
// DRRP (Sec. III-C).
type Plan struct {
	// Alpha is the data generated per slot (α_{i,t}), Beta the storage at
	// the end of each slot (β_{i,t}), Chi the rental decision (χ_{i,t}).
	Alpha, Beta []float64
	Chi         []bool
	// Cost is the total objective (1), including the transfer-out term.
	Cost float64
	// Breakdown decomposes Cost by resource.
	Breakdown CostBreakdown
	// Degraded reports that the MILP search stopped at a limit, deadline or
	// cancellation and this plan is the best incumbent rather than a proven
	// optimum; Gap is its proven relative optimality gap. Both are zero on
	// the exact DP paths and for proven-optimal MILP solves.
	Degraded bool
	Gap      float64
}

// SolveDRRP computes an optimal deterministic rental plan. prices[t] is the
// compute rental cost Cp(i,t) for each slot (fixed on-demand rates, or bid/
// forecast prices when planning for the spot market); dem[t] is D(i,t).
// Uncapacitated instances use the exact Wagner–Whitin dynamic program;
// capacitated ones the MILP path.
func SolveDRRP(par Params, prices, dem []float64) (*Plan, error) {
	return SolveDRRPCtx(context.Background(), par, prices, dem)
}

// SolveDRRPCtx is SolveDRRP under a context. The MILP path threads ctx into
// branch-and-bound and accepts a deadline-expired incumbent as a degraded
// plan (Plan.Degraded/Gap); the exact DP paths are fast enough that only an
// upfront cancellation check applies. A background context is bit-identical
// to SolveDRRP.
func SolveDRRPCtx(ctx context.Context, par Params, prices, dem []float64) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: DRRP canceled: %w", err)
	}
	if err := par.validate(); err != nil {
		return nil, err
	}
	T := len(dem)
	if T == 0 {
		return nil, errors.New("core: empty horizon")
	}
	if len(prices) != T {
		return nil, fmt.Errorf("core: %d prices for %d slots", len(prices), T)
	}
	cp := &lotsize.ChainProblem{
		Setup:            prices,
		Unit:             constants(T, par.UnitGenCost()),
		Hold:             constants(T, par.HoldingCost()),
		Demand:           dem,
		InitialInventory: par.Epsilon,
	}
	if par.Capacitated() {
		// Constant capacity admits the exact Florian–Klein dynamic program,
		// orders of magnitude faster than branch-and-bound; time-varying
		// capacities fall back to the MILP.
		if c, ok := constantCapacity(par, T); ok {
			sol, err := lotsize.SolveChainCapacitated(cp, c)
			if err != nil {
				return nil, fmt.Errorf("core: DRRP infeasible or unsolvable: %w", err)
			}
			return assemblePlan(par, prices, dem, sol.Produce, sol.Inventory, sol.Setup), nil
		}
		return solveDRRPMILP(ctx, par, prices, dem)
	}
	sol, err := lotsize.SolveChain(cp)
	if err != nil {
		return nil, err
	}
	return assemblePlan(par, prices, dem, sol.Produce, sol.Inventory, sol.Setup), nil
}

// constantCapacity reports the per-slot generation bound Q/P when the
// capacity series is constant over the horizon.
func constantCapacity(par Params, T int) (float64, bool) {
	if len(par.Capacity) < T || par.ConsumptionRate <= 0 {
		return 0, false
	}
	c := par.Capacity[0] / par.ConsumptionRate
	for t := 1; t < T; t++ {
		if math.Abs(par.Capacity[t]-par.Capacity[0]) > num.DriftTol {
			return 0, false
		}
	}
	return c, true
}

// assemblePlan recomputes the exact cost breakdown from a raw plan.
func assemblePlan(par Params, prices, dem, alpha, beta []float64, chi []bool) *Plan {
	p := &Plan{
		Alpha: append([]float64(nil), alpha...),
		Beta:  append([]float64(nil), beta...),
		Chi:   append([]bool(nil), chi...),
	}
	for t := range dem {
		if p.Chi[t] {
			p.Breakdown.Compute += prices[t]
		}
		p.Breakdown.TransferIn += par.UnitGenCost() * p.Alpha[t]
		p.Breakdown.Holding += par.HoldingCost() * p.Beta[t]
		p.Breakdown.TransferOut += par.Pricing.TransferOutPerGB * dem[t]
	}
	p.Cost = p.Breakdown.Total()
	return p
}

func constants(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// solveDRRPMILP handles the capacitated formulation (1)–(7) via
// branch-and-bound. A search stopped by a limit, deadline or cancellation
// still yields a plan when an incumbent exists — marked Degraded with its
// proven gap — so a deadline-bounded caller can decide whether to accept it.
func solveDRRPMILP(ctx context.Context, par Params, prices, dem []float64) (*Plan, error) {
	prob, idx, err := BuildDRRPMILP(par, prices, dem)
	if err != nil {
		return nil, err
	}
	sol, err := mip.SolveCtx(ctx, prob, par.Solver)
	if err != nil {
		return nil, err
	}
	degraded := false
	switch sol.Status {
	case mip.StatusOptimal:
	case mip.StatusFeasible:
		degraded = true
	case mip.StatusTimeLimit, mip.StatusCanceled:
		if sol.X == nil {
			return nil, fmt.Errorf("core: DRRP solve stopped with status %v before finding an incumbent", sol.Status)
		}
		degraded = true
	case mip.StatusInfeasible:
		return nil, errors.New("core: DRRP infeasible (capacity too tight for demand)")
	default:
		return nil, fmt.Errorf("core: DRRP solve stopped with status %v", sol.Status)
	}
	T := len(dem)
	alpha := make([]float64, T)
	beta := make([]float64, T)
	chi := make([]bool, T)
	for t := 0; t < T; t++ {
		alpha[t] = sol.X[idx.Alpha(t)]
		beta[t] = sol.X[idx.Beta(t)]
		chi[t] = sol.X[idx.Chi(t)] > 0.5
	}
	p := assemblePlan(par, prices, dem, alpha, beta, chi)
	p.Degraded = degraded
	if degraded {
		p.Gap = sol.Gap
	}
	return p, nil
}

// MILPIndex maps DRRP model variables to MILP column indices.
type MILPIndex struct{ T int }

// Alpha returns the column of α_t.
func (ix MILPIndex) Alpha(t int) int { return t }

// Beta returns the column of β_t.
func (ix MILPIndex) Beta(t int) int { return ix.T + t }

// Chi returns the column of χ_t.
func (ix MILPIndex) Chi(t int) int { return 2*ix.T + t }

// BuildDRRPMILP constructs the mixed integer linear program (1)–(7) for the
// given data. It is exported for the solver-comparison benchmarks; normal
// callers should use SolveDRRP, which picks the fastest exact method.
func BuildDRRPMILP(par Params, prices, dem []float64) (*mip.Problem, MILPIndex, error) {
	if err := par.validate(); err != nil {
		return nil, MILPIndex{}, err
	}
	T := len(dem)
	if T == 0 || len(prices) != T {
		return nil, MILPIndex{}, errors.New("core: bad MILP dimensions")
	}
	ix := MILPIndex{T: T}
	nv := 3 * T
	// Tightened forcing bounds: production in slot t never usefully exceeds
	// the remaining demand Σ_{t'≥t} D_{t'} (any surplus is never consumed
	// and can be removed without increasing cost), which keeps the LP
	// relaxation of (4) much stronger than a single global big-B.
	remaining := make([]float64, T+1)
	for t := T - 1; t >= 0; t-- {
		remaining[t] = remaining[t+1] + dem[t]
	}
	lpp := newLP(nv)
	for t := 0; t < T; t++ {
		lpp.C[ix.Alpha(t)] = par.UnitGenCost()
		lpp.C[ix.Beta(t)] = par.HoldingCost()
		lpp.C[ix.Chi(t)] = prices[t]
		lpp.Upper[ix.Chi(t)] = 1
		// Objective constant C⁻f·D is added by assemblePlan; the MILP
		// optimises the variable part only.
	}
	for t := 0; t < T; t++ {
		// (2) inventory balance: β_{t−1} + α_t − β_t = D_t.
		rhs := dem[t]
		if t > 0 {
			addRowNZ(lpp, eqRel, rhs,
				nz{ix.Alpha(t), 1}, nz{ix.Beta(t), -1}, nz{ix.Beta(t - 1), 1})
		} else {
			rhs -= par.Epsilon
			addRowNZ(lpp, eqRel, rhs,
				nz{ix.Alpha(t), 1}, nz{ix.Beta(t), -1})
		}
		// (4) forcing: α_t ≤ B_t·χ_t with B_t the remaining demand.
		addRowNZ(lpp, leRel, 0,
			nz{ix.Alpha(t), 1}, nz{ix.Chi(t), -remaining[t]})
		// Valid inequality strengthening the relaxation: production either
		// serves the current slot's demand or enters stock,
		// α_t − β_t ≤ D_t·χ_t.
		addRowNZ(lpp, leRel, 0,
			nz{ix.Alpha(t), 1}, nz{ix.Beta(t), -1}, nz{ix.Chi(t), -dem[t]})
		// (3) bottleneck: P·α_t ≤ Q_t (only when configured).
		if par.Capacitated() {
			if t >= len(par.Capacity) {
				return nil, MILPIndex{}, fmt.Errorf("core: capacity series shorter than horizon (%d < %d)", len(par.Capacity), T)
			}
			addRowNZ(lpp, leRel, par.Capacity[t],
				nz{ix.Alpha(t), par.ConsumptionRate})
		}
	}
	ints := make([]bool, nv)
	for t := 0; t < T; t++ {
		ints[ix.Chi(t)] = true
	}
	return &mip.Problem{LP: lpp, Integer: ints}, ix, nil
}

// NoPlanCost evaluates the no-planning baseline of Fig. 10: the application
// rents the instance in every slot with positive demand and generates
// exactly that slot's demand, holding no inventory.
func NoPlanCost(par Params, prices, dem []float64) (*Plan, error) {
	if err := par.validate(); err != nil {
		return nil, err
	}
	if len(prices) != len(dem) {
		return nil, errors.New("core: price/demand length mismatch")
	}
	T := len(dem)
	alpha := make([]float64, T)
	beta := make([]float64, T)
	chi := make([]bool, T)
	inv := par.Epsilon
	for t := 0; t < T; t++ {
		// Any initial inventory drains first; afterwards the no-plan scheme
		// generates each slot's demand just in time.
		use := math.Min(inv, dem[t])
		inv -= use
		alpha[t] = dem[t] - use
		beta[t] = inv
		chi[t] = alpha[t] > 0
	}
	return assemblePlan(par, prices, dem, alpha, beta, chi), nil
}
