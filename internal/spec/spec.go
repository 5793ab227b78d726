// Package spec defines the JSON instance format consumed by cmd/rentplan:
// a self-contained description of a planning problem (class, cost
// parameters, demand, prices or spot-market configuration) that can be
// checked, solved, and round-tripped. It decouples the CLI surface from the
// core API so instances can be version-controlled and shared.
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"rentplan/internal/core"
	"rentplan/internal/market"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

// Instance is the top-level JSON document.
type Instance struct {
	// Model selects "drrp" or "srrp".
	Model string `json:"model"`
	// Class is the VM class name (e.g. "c1.medium").
	Class string `json:"class"`
	// Phi is the input-output ratio Φ (default 0.5 when omitted).
	Phi *float64 `json:"phi,omitempty"`
	// Epsilon is the initial storage ε in GB.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Demand is the per-slot demand in GB. For SRRP its length must be
	// Stages+1 (slot 0 is the current stage).
	Demand []float64 `json:"demand"`
	// Prices is the per-slot rental price for DRRP. Omitted → the class's
	// on-demand rate in every slot.
	Prices []float64 `json:"prices,omitempty"`
	// Capacity activates the bottleneck constraint (3) when present, with
	// ConsumptionRate defaulting to 1.
	Capacity        []float64 `json:"capacity,omitempty"`
	ConsumptionRate float64   `json:"consumptionRate,omitempty"`

	// SRRP-only fields.
	Srrp *SrrpSpec `json:"srrp,omitempty"`
}

// SrrpSpec configures the stochastic model.
type SrrpSpec struct {
	// Stages is the number of future stages.
	Stages int `json:"stages"`
	// Bid is the (constant) bid price; Bids overrides it per stage.
	Bid  float64   `json:"bid,omitempty"`
	Bids []float64 `json:"bids,omitempty"`
	// RootPrice is the known current spot price.
	RootPrice float64 `json:"rootPrice"`
	// BaseValues/BaseProbs give the summarised historical distribution; if
	// BaseProbs is omitted, values are weighted uniformly.
	BaseValues []float64 `json:"baseValues"`
	BaseProbs  []float64 `json:"baseProbs,omitempty"`
	// MaxBranch caps the tree branching (0 = uncapped).
	MaxBranch int `json:"maxBranch,omitempty"`
}

// Parse decodes and validates an instance from JSON.
func Parse(r io.Reader) (*Instance, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var ins Instance
	if err := dec.Decode(&ins); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	return &ins, nil
}

// Validate checks structural consistency without solving.
func (ins *Instance) Validate() error {
	switch ins.Model {
	case "drrp", "srrp":
	default:
		return fmt.Errorf("spec: model %q (want drrp or srrp)", ins.Model)
	}
	if len(ins.Demand) == 0 {
		return errors.New("spec: empty demand")
	}
	for i, d := range ins.Demand {
		if d < 0 {
			return fmt.Errorf("spec: negative demand at slot %d", i)
		}
	}
	if ins.Phi != nil && *ins.Phi < 0 {
		return errors.New("spec: negative phi")
	}
	if ins.Epsilon < 0 {
		return errors.New("spec: negative epsilon")
	}
	par := ins.params()
	if _, err := par.OnDemandRate(); err != nil {
		return fmt.Errorf("spec: unknown class %q", ins.Class)
	}
	if ins.Prices != nil && len(ins.Prices) != len(ins.Demand) {
		return fmt.Errorf("spec: %d prices for %d demand slots", len(ins.Prices), len(ins.Demand))
	}
	if ins.Capacity != nil && len(ins.Capacity) < len(ins.Demand) {
		return fmt.Errorf("spec: capacity series shorter than demand")
	}
	switch ins.Model {
	case "drrp":
		if ins.Srrp != nil {
			return errors.New("spec: srrp block present on a drrp instance")
		}
	case "srrp":
		s := ins.Srrp
		if s == nil {
			return errors.New("spec: srrp model needs an srrp block")
		}
		if s.Stages <= 0 {
			return errors.New("spec: srrp.stages must be positive")
		}
		if len(ins.Demand) != s.Stages+1 {
			return fmt.Errorf("spec: srrp wants %d demand slots (stages+1), got %d", s.Stages+1, len(ins.Demand))
		}
		if s.RootPrice <= 0 {
			return errors.New("spec: srrp.rootPrice must be positive")
		}
		if len(s.BaseValues) == 0 {
			return errors.New("spec: srrp.baseValues empty")
		}
		if s.BaseProbs != nil && len(s.BaseProbs) != len(s.BaseValues) {
			return errors.New("spec: baseProbs/baseValues length mismatch")
		}
		if len(s.Bids) > 0 && len(s.Bids) != s.Stages {
			return fmt.Errorf("spec: %d bids for %d stages", len(s.Bids), s.Stages)
		}
		if len(s.Bids) == 0 && s.Bid <= 0 {
			return errors.New("spec: srrp needs bid or bids")
		}
	}
	return nil
}

func (ins *Instance) params() core.Params {
	par := core.DefaultParams(market.VMClass(ins.Class))
	if ins.Phi != nil {
		par.Phi = *ins.Phi
	}
	par.Epsilon = ins.Epsilon
	if ins.Capacity != nil {
		par.Capacity = ins.Capacity
		par.ConsumptionRate = ins.ConsumptionRate
		if par.ConsumptionRate == 0 { //lint:ignore rentlint/floatcmp zero is the unset-default sentinel of the instance spec, never a computed result
			par.ConsumptionRate = 1
		}
	}
	return par
}

// Result is the solver output in a JSON-friendly shape.
type Result struct {
	Model string `json:"model"`
	Class string `json:"class"`
	// Cost is the (expected) optimal objective.
	Cost float64 `json:"cost"`
	// Breakdown components.
	Compute  float64 `json:"compute"`
	Holding  float64 `json:"holding"`
	Transfer float64 `json:"transfer"`
	// DRRP plan (per slot) or SRRP root decision.
	Alpha []float64 `json:"alpha,omitempty"`
	Chi   []bool    `json:"chi,omitempty"`
	Beta  []float64 `json:"beta,omitempty"`

	RootRent     *bool    `json:"rootRent,omitempty"`
	RootAlpha    *float64 `json:"rootAlpha,omitempty"`
	TreeVertices int      `json:"treeVertices,omitempty"`
}

// Solve runs the described instance, passing solver to every
// branch-and-bound search it needs (core.Params.Solver).
func (ins *Instance) Solve(solver mip.Options) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	par := ins.params()
	par.Solver = solver
	switch ins.Model {
	case "drrp":
		prices := ins.Prices
		if prices == nil {
			lambda, err := par.OnDemandRate()
			if err != nil {
				return nil, err
			}
			prices = make([]float64, len(ins.Demand))
			for t := range prices {
				prices[t] = lambda
			}
		}
		plan, err := core.SolveDRRP(par, prices, ins.Demand)
		if err != nil {
			return nil, err
		}
		return &Result{
			Model: ins.Model, Class: ins.Class,
			Cost:     plan.Cost,
			Compute:  plan.Breakdown.Compute,
			Holding:  plan.Breakdown.Holding,
			Transfer: plan.Breakdown.Transfer(),
			Alpha:    plan.Alpha, Chi: plan.Chi, Beta: plan.Beta,
		}, nil
	case "srrp":
		s := ins.Srrp
		probs := s.BaseProbs
		if probs == nil {
			probs = make([]float64, len(s.BaseValues))
			for i := range probs {
				probs[i] = 1 / float64(len(s.BaseValues))
			}
		}
		base := stats.Discrete{Values: append([]float64(nil), s.BaseValues...), Probs: probs}
		bids := s.Bids
		if len(bids) == 0 {
			bids = make([]float64, s.Stages)
			for i := range bids {
				bids[i] = s.Bid
			}
		}
		lambda, err := par.OnDemandRate()
		if err != nil {
			return nil, err
		}
		tree, err := scenario.Build(base, bids, lambda, scenario.BuildConfig{
			Stages:    s.Stages,
			MaxBranch: s.MaxBranch,
			RootPrice: s.RootPrice,
		})
		if err != nil {
			return nil, err
		}
		plan, err := core.SolveSRRP(par, tree, ins.Demand)
		if err != nil {
			return nil, err
		}
		rr, ra := plan.RootRent, plan.RootAlpha
		return &Result{
			Model: ins.Model, Class: ins.Class,
			Cost:     plan.ExpCost,
			Compute:  plan.Breakdown.Compute,
			Holding:  plan.Breakdown.Holding,
			Transfer: plan.Breakdown.Transfer(),
			RootRent: &rr, RootAlpha: &ra,
			TreeVertices: tree.N(),
		}, nil
	}
	return nil, fmt.Errorf("spec: model %q", ins.Model)
}

// Write serialises the instance as indented JSON.
func (ins *Instance) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ins)
}
