// Package core implements the paper's contribution: the Deterministic
// Resource Rental Planning model (DRRP, Sec. III), the Stochastic Resource
// Rental Planning model (SRRP, Sec. IV) over bid-dependent scenario trees,
// and the execution layer that evaluates planning policies against realised
// spot-price traces (Sec. V). Uncapacitated instances — the configuration
// the paper evaluates — are solved exactly by the dynamic programs in
// internal/lotsize; instances with an active bottleneck constraint fall
// back to branch-and-bound MILP via internal/mip, except where an exact DP
// still applies: constant-capacity DRRP, and SRRP whose capacities the
// uncapacitated optimum already fits.
package core

import (
	"errors"
	"fmt"
	"math"

	"rentplan/internal/market"
	"rentplan/internal/mip"
)

// Params collects the per-class model parameters of Table I.
type Params struct {
	// Pricing is the cloud market cost book.
	Pricing market.Pricing
	// Class selects the VM class i.
	Class market.VMClass
	// Phi is the average input-output ratio Φ_i (paper: 0.5).
	Phi float64
	// Epsilon is the initial storage amount ε of constraint (5)/(17).
	Epsilon float64
	// ConsumptionRate is P(i), the bottleneck resource consumed per data
	// unit generated. Zero disables the bottleneck constraint, as in the
	// paper's evaluation.
	ConsumptionRate float64
	// Capacity is Q(i,t), the per-slot bottleneck availability; nil
	// disables the constraint. When set with ConsumptionRate > 0, planning
	// uses the MILP path unless an exact DP applies: the Florian–Klein DP
	// for a constant DRRP capacity, or the tree DP for SRRP capacities its
	// uncapacitated optimum fits (see SolveDRRP and SolveSRRP).
	Capacity []float64
	// Solver forwards branch-and-bound options to every MILP solve these
	// models perform (DRRP/SRRP capacitated paths, CVaR).
	// The zero value selects the mip defaults, including a parallel search
	// across all cores; set Solver.Workers = 1 to force the serial path or
	// Solver.Progress to stream solver statistics.
	Solver mip.Options
}

// DefaultParams returns the Sec. V-A configuration for a class: Amazon
// pricing, Φ = 0.5, ε = 0, no bottleneck constraint.
func DefaultParams(class market.VMClass) Params {
	return Params{
		Pricing: market.AmazonPricing(),
		Class:   class,
		Phi:     0.5,
	}
}

// Capacitated reports whether the bottleneck constraint (3)/(15) is active.
func (p Params) Capacitated() bool { return p.ConsumptionRate > 0 && p.Capacity != nil }

// OnDemandRate returns λ_i, the fixed on-demand hourly price of the class.
func (p Params) OnDemandRate() (float64, error) {
	v, ok := p.Pricing.OnDemand[p.Class]
	if !ok {
		return 0, fmt.Errorf("core: no on-demand price for class %q", p.Class)
	}
	return v, nil
}

// UnitGenCost is the per-GB data generation cost C⁺f·Φ (transfer-in of the
// input data needed to produce one GB of output).
func (p Params) UnitGenCost() float64 { return p.Pricing.TransferInPerGB * p.Phi }

// HoldingCost is the per-GB-hour inventory coefficient Cs + Cio.
func (p Params) HoldingCost() float64 { return p.Pricing.HoldingPerGBHour() }

func (p Params) validate() error {
	// Reject NaN/Inf up front: a single non-finite coefficient silently
	// poisons the DP recurrences and LP pivots (NaN compares false against
	// every sign check), so it must never reach a solver.
	if !isFinite(p.Phi) || p.Phi < 0 {
		return fmt.Errorf("core: Phi %v not a finite non-negative number", p.Phi)
	}
	if !isFinite(p.Epsilon) || p.Epsilon < 0 {
		return fmt.Errorf("core: Epsilon %v not a finite non-negative number", p.Epsilon)
	}
	rate, err := p.OnDemandRate()
	if err != nil {
		return err
	}
	if !isFinite(rate) {
		return fmt.Errorf("core: non-finite on-demand rate %v for class %q", rate, p.Class)
	}
	if p.Pricing.TransferInPerGB < 0 || p.Pricing.TransferOutPerGB < 0 ||
		p.Pricing.StoragePerGBHour < 0 || p.Pricing.IOPerGBHour < 0 {
		return errors.New("core: negative pricing entries")
	}
	if !isFinite(p.Pricing.TransferInPerGB) || !isFinite(p.Pricing.TransferOutPerGB) ||
		!isFinite(p.Pricing.StoragePerGBHour) || !isFinite(p.Pricing.IOPerGBHour) {
		return errors.New("core: non-finite pricing entries")
	}
	if !isFinite(p.ConsumptionRate) {
		return fmt.Errorf("core: non-finite ConsumptionRate %v", p.ConsumptionRate)
	}
	for t, q := range p.Capacity {
		if !isFinite(q) {
			return fmt.Errorf("core: non-finite capacity %v at slot %d", q, t)
		}
	}
	return nil
}

// isFinite reports a finite (neither NaN nor ±Inf) value.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// CostBreakdown decomposes a plan's cost into the components of Fig. 2 /
// Fig. 10 (bottom): compute rental, storage+I/O, and network transfer.
type CostBreakdown struct {
	Compute     float64 // Σ Cp·χ
	Holding     float64 // Σ (Cs+Cio)·β
	TransferIn  float64 // Σ C⁺f·Φ·α
	TransferOut float64 // Σ C⁻f·D
}

// Total returns the summed cost.
func (b CostBreakdown) Total() float64 {
	return b.Compute + b.Holding + b.TransferIn + b.TransferOut
}

// Transfer returns the combined network transfer cost.
func (b CostBreakdown) Transfer() float64 { return b.TransferIn + b.TransferOut }

// Add accumulates another breakdown into b.
func (b *CostBreakdown) Add(o CostBreakdown) {
	b.Compute += o.Compute
	b.Holding += o.Holding
	b.TransferIn += o.TransferIn
	b.TransferOut += o.TransferOut
}
