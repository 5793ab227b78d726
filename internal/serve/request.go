package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"rentplan/internal/core"
	"rentplan/internal/market"
	"rentplan/internal/stats"
)

// PlanRequest is the body of POST /v1/plan: one self-contained planning
// problem for one tenant, mapped onto the core entry points. Three models
// are served:
//
//   - "drrp": deterministic plan over Prices/Demand (SolveDRRPCtx).
//   - "srrp": stochastic plan on a bid-adjusted scenario tree built from
//     the base distribution (SolveSRRPCtx); the tree is cached and shared
//     across tenants with identical market state.
//   - "step": one rolling-horizon re-plan at Slot with the tenant's
//     current Inventory (PlanStochasticStepCtx) on a tree from the same
//     cache, warm-started from the tenant's previous plan and root basis
//     when possible.
type PlanRequest struct {
	// Tenant identifies the requesting application; per-tenant rolling
	// state (previous plan, warm-start basis) is keyed by it.
	Tenant string `json:"tenant"`
	// Model selects "drrp", "srrp" or "step".
	Model string `json:"model"`
	// Class is the VM class name (e.g. "c1.medium").
	Class string `json:"class"`
	// Phi is the input-output ratio Φ (nil selects 0.5).
	Phi *float64 `json:"phi,omitempty"`
	// Epsilon is the initial storage in GB (drrp/srrp; the step model
	// tracks inventory per slot instead).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Demand is the per-slot demand series. For srrp its length must be
	// Stages+1; for step it is the tenant's full evaluation horizon.
	Demand []float64 `json:"demand"`
	// Prices is the per-slot price series (drrp only).
	Prices []float64 `json:"prices,omitempty"`
	// Capacity/ConsumptionRate activate the bottleneck constraint. An srrp
	// or step solve whose capacities the uncapacitated optimum fits is still
	// answered by the tree DP; only a binding one runs branch-and-bound.
	Capacity        []float64 `json:"capacity,omitempty"`
	ConsumptionRate float64   `json:"consumptionRate,omitempty"`

	// Bid is the (constant) spot bid price (srrp/step).
	Bid float64 `json:"bid,omitempty"`
	// Stages is the scenario-tree lookahead beyond the root (srrp/step).
	Stages int `json:"stages,omitempty"`
	// MaxBranch caps the tree branching (0 = uncapped).
	MaxBranch int `json:"maxBranch,omitempty"`
	// RootPrice is the currently observed spot price (srrp/step).
	RootPrice float64 `json:"rootPrice,omitempty"`
	// BaseValues/BaseProbs are the summarised historical price
	// distribution; BaseProbs omitted weights the values uniformly.
	BaseValues []float64 `json:"baseValues,omitempty"`
	BaseProbs  []float64 `json:"baseProbs,omitempty"`

	// Slot is the current evaluation slot (step only).
	Slot int `json:"slot,omitempty"`
	// Inventory is the tenant's current storage level in GB (step only).
	Inventory float64 `json:"inventory,omitempty"`
	// Replan is the rolling stride: a plan from slot s serves decisions up
	// to slot s+Replan-1 before a re-solve (step only; ≤0 means 1).
	Replan int `json:"replan,omitempty"`

	// BudgetMS caps the solve wall-clock in milliseconds and arms the
	// degradation ladder; 0 selects the server default.
	BudgetMS int `json:"budgetMs,omitempty"`
}

// PlanResponse is the JSON body returned by POST /v1/plan.
type PlanResponse struct {
	Tenant string `json:"tenant,omitempty"`
	Model  string `json:"model"`
	// Cost is the optimal (expected) objective of the returned plan.
	Cost float64 `json:"cost"`
	// Breakdown components of Cost.
	Compute  float64 `json:"compute"`
	Holding  float64 `json:"holding"`
	Transfer float64 `json:"transfer"`
	// Alpha/Chi/Beta are the per-slot decisions (drrp) or per-vertex
	// decisions (srrp).
	Alpha []float64 `json:"alpha,omitempty"`
	Chi   []bool    `json:"chi,omitempty"`
	Beta  []float64 `json:"beta,omitempty"`
	// Rent/Generate are the implementable here-and-now decisions
	// (srrp/step).
	Rent     *bool    `json:"rent,omitempty"`
	Generate *float64 `json:"generate,omitempty"`
	// Rung is the degradation-ladder rung that produced a step plan
	// ("full", "incumbent", "dp", "on-demand").
	Rung string `json:"rung,omitempty"`
	// Degraded/Gap report an incumbent accepted at a deadline.
	Degraded bool    `json:"degraded,omitempty"`
	Gap      float64 `json:"gap,omitempty"`
	// TreeVertices is the scenario-tree size (srrp/step).
	TreeVertices int `json:"treeVertices,omitempty"`
	// CacheHit reports the scenario tree was served from the shared cache.
	CacheHit bool `json:"cacheHit,omitempty"`
	// WarmRoot reports the MILP root relaxation was warm-started from a
	// cached or tenant basis; it is false whenever no branch-and-bound ran.
	WarmRoot bool `json:"warmRoot,omitempty"`
	// PlanReuse reports a step decision served from the tenant's previous
	// plan without a new solve.
	PlanReuse bool `json:"planReuse,omitempty"`
	// Nodes is the branch-and-bound node count of a MILP solve (0 on the
	// exact DP paths).
	Nodes int `json:"nodes,omitempty"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds a request body; a demand series of a year of hourly
// slots is ~100KB of JSON, so 4MB is generous.
const maxBodyBytes = 4 << 20

// decodePlanRequest decodes and fully validates a plan request. Every
// rejection is a client error (400): the decoder is the admission filter
// that keeps NaN/Inf/negative series from reaching Params.validate panics
// (or silent poisoning) deep inside a pooled worker.
func decodePlanRequest(r io.Reader) (*PlanRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req PlanRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %v", err)
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (q *PlanRequest) validate() error {
	switch q.Model {
	case "drrp", "srrp", "step":
	default:
		return fmt.Errorf("model %q (want drrp, srrp, or step)", q.Model)
	}
	if _, err := q.params().OnDemandRate(); err != nil {
		return fmt.Errorf("unknown class %q", q.Class)
	}
	if q.Phi != nil && !finiteNonNeg(*q.Phi) {
		return fmt.Errorf("phi %v not a finite non-negative number", *q.Phi)
	}
	if !finiteNonNeg(q.Epsilon) {
		return fmt.Errorf("epsilon %v not a finite non-negative number", q.Epsilon)
	}
	if len(q.Demand) == 0 {
		return errors.New("empty demand series")
	}
	if err := checkSeries("demand", q.Demand, false); err != nil {
		return err
	}
	if q.Capacity != nil {
		if err := checkSeries("capacity", q.Capacity, false); err != nil {
			return err
		}
		if !finiteNonNeg(q.ConsumptionRate) {
			return fmt.Errorf("consumptionRate %v not a finite non-negative number", q.ConsumptionRate)
		}
	}
	if q.BudgetMS < 0 {
		return fmt.Errorf("budgetMs %d negative", q.BudgetMS)
	}
	switch q.Model {
	case "drrp":
		if q.Prices == nil {
			return errors.New("drrp needs a prices series")
		}
		if len(q.Prices) != len(q.Demand) {
			return fmt.Errorf("%d prices for %d demand slots", len(q.Prices), len(q.Demand))
		}
		return checkSeries("prices", q.Prices, true)
	case "srrp", "step":
		if q.Stages < 0 {
			return fmt.Errorf("stages %d negative", q.Stages)
		}
		if q.MaxBranch < 0 {
			return fmt.Errorf("maxBranch %d negative", q.MaxBranch)
		}
		if !isFinite(q.RootPrice) || q.RootPrice <= 0 {
			return fmt.Errorf("rootPrice %v not a finite positive number", q.RootPrice)
		}
		if !isFinite(q.Bid) || q.Bid <= 0 {
			return fmt.Errorf("bid %v not a finite positive number", q.Bid)
		}
		if len(q.BaseValues) == 0 {
			return errors.New("empty baseValues")
		}
		if err := checkSeries("baseValues", q.BaseValues, true); err != nil {
			return err
		}
		if q.BaseProbs != nil {
			if len(q.BaseProbs) != len(q.BaseValues) {
				return errors.New("baseProbs/baseValues length mismatch")
			}
			sum := 0.0
			for i, p := range q.BaseProbs {
				if !isFinite(p) || p < 0 {
					return fmt.Errorf("baseProbs[%d] = %v not a finite non-negative number", i, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return fmt.Errorf("baseProbs sum to %v, want 1", sum)
			}
		}
		if v := q.treeVertexBound(); v > MaxTreeVertices {
			return fmt.Errorf("stages %d with up to %d children per vertex allow a scenario tree of at least %d vertices, over the limit of %d",
				q.Stages, q.branchBound(), v, MaxTreeVertices)
		}
		if q.Model == "srrp" && len(q.Demand) != q.Stages+1 {
			return fmt.Errorf("srrp wants %d demand slots (stages+1), got %d", q.Stages+1, len(q.Demand))
		}
		if q.Model == "step" {
			if q.Tenant == "" {
				return errors.New("step needs a tenant")
			}
			if q.Slot < 0 || q.Slot >= len(q.Demand) {
				return fmt.Errorf("slot %d outside horizon [0,%d)", q.Slot, len(q.Demand))
			}
			if !finiteNonNeg(q.Inventory) {
				return fmt.Errorf("inventory %v not a finite non-negative number", q.Inventory)
			}
		}
		return nil
	}
	return nil
}

// MaxTreeVertices bounds the scenario tree an srrp or step request may ask
// for. Neither stages nor the branching is bounded on its own (maxBranch 0
// means uncapped), so without it one request could make the daemon build an
// exponentially large tree. The limit is 360 times the largest tree the
// in-repo clients send (364 vertices: 5 stages, branching 3) and 13 times
// the largest tree anything in the repository builds (9841 vertices: 8
// stages, branching 3).
const MaxTreeVertices = 1 << 17

// branchBound returns the most children a vertex of the request's tree can
// have: scenario.Build keeps at most len(BaseValues) below-bid states plus
// the out-of-bid state, and a positive MaxBranch caps that total at
// max(MaxBranch, 2), since a lone kept state always sits next to the
// out-of-bid one.
func (q *PlanRequest) branchBound() int {
	b := len(q.BaseValues) + 1
	if q.MaxBranch > 0 && q.MaxBranch < b {
		b = max(q.MaxBranch, 2)
	}
	return b
}

// treeVertexBound returns Σ_{k≤Stages} bᵏ for b = branchBound(), the most
// vertices the request's tree can have. It stops summing once the total
// passes MaxTreeVertices, so it never overflows: every level it multiplies
// is at most MaxTreeVertices.
func (q *PlanRequest) treeVertexBound() int {
	b := q.branchBound()
	sum, level := 0, 1
	for k := 0; k <= q.Stages; k++ {
		sum += level
		if sum > MaxTreeVertices {
			break
		}
		level *= b
	}
	return sum
}

// checkSeries rejects NaN/Inf entries, negatives, and — when positive is
// set — zeros.
func checkSeries(name string, xs []float64, positive bool) error {
	for i, v := range xs {
		//lint:ignore rentlint/floatcmp exact sentinel: a literal 0 in a positive series is invalid input, not a tolerance question
		if !isFinite(v) || v < 0 || (positive && v == 0) {
			kind := "finite non-negative"
			if positive {
				kind = "finite positive"
			}
			return fmt.Errorf("%s[%d] = %v not a %s number", name, i, v, kind)
		}
	}
	return nil
}

func isFinite(v float64) bool     { return !math.IsNaN(v) && !math.IsInf(v, 0) }
func finiteNonNeg(v float64) bool { return isFinite(v) && v >= 0 }

// params builds the core model parameters the request describes.
func (q *PlanRequest) params() core.Params {
	par := core.DefaultParams(market.VMClass(q.Class))
	if q.Phi != nil {
		par.Phi = *q.Phi
	}
	par.Epsilon = q.Epsilon
	if q.Capacity != nil {
		par.Capacity = append([]float64(nil), q.Capacity...)
		par.ConsumptionRate = q.ConsumptionRate
		//lint:ignore rentlint/floatcmp exact sentinel: an omitted JSON field decodes to literal 0, meaning "default to 1"
		if par.ConsumptionRate == 0 {
			par.ConsumptionRate = 1
		}
	}
	return par
}

// base builds the discrete price distribution the request describes.
func (q *PlanRequest) base() stats.Discrete {
	d := stats.Discrete{Values: append([]float64(nil), q.BaseValues...)}
	if q.BaseProbs != nil {
		d.Probs = append([]float64(nil), q.BaseProbs...)
	} else {
		d.Probs = make([]float64, len(d.Values))
		for i := range d.Probs {
			d.Probs[i] = 1 / float64(len(d.Values))
		}
	}
	return d
}

// bids expands the constant bid over n slots.
func (q *PlanRequest) bids(n int) []float64 {
	bids := make([]float64, n)
	for i := range bids {
		bids[i] = q.Bid
	}
	return bids
}
