package core

import (
	"context"
	"errors"

	"rentplan/internal/benders"
	"rentplan/internal/lotsize"
	"rentplan/internal/scenario"
)

// SolveSRRPNestedLShaped solves the multistage LP relaxation of an SRRP
// scenario tree by the nested L-shaped method (Birge's algorithm, the
// paper's reference [28]). The returned Bound plus the transfer-out
// constant is a lower bound on the exact SRRP expected cost; tests verify
// it against the exact tree DP and the extensive-form LP.
func SolveSRRPNestedLShaped(par Params, tree *scenario.Tree, dem []float64, opts benders.NestedOptions) (*benders.NestedResult, float64, error) {
	return SolveSRRPNestedLShapedCtx(context.Background(), par, tree, dem, opts)
}

// SolveSRRPNestedLShapedCtx is SolveSRRPNestedLShaped under a context,
// threading ctx through every vertex LP of the nested sweeps. A background
// context is bit-identical to SolveSRRPNestedLShaped.
func SolveSRRPNestedLShapedCtx(ctx context.Context, par Params, tree *scenario.Tree, dem []float64, opts benders.NestedOptions) (*benders.NestedResult, float64, error) {
	if err := par.validate(); err != nil {
		return nil, 0, err
	}
	if err := tree.Validate(); err != nil {
		return nil, 0, err
	}
	if len(dem) != tree.Stages() {
		return nil, 0, errors.New("core: demand/stage mismatch")
	}
	if par.Capacitated() {
		return nil, 0, errors.New("core: capacitated nested decomposition not supported")
	}
	n := tree.N()
	tp := &lotsize.TreeProblem{
		Parent:           tree.Parent,
		Prob:             tree.Prob,
		Setup:            tree.Price,
		Unit:             constants(n, par.UnitGenCost()),
		Hold:             constants(n, par.HoldingCost()),
		Demand:           make([]float64, n),
		InitialInventory: par.Epsilon,
	}
	for v := 0; v < n; v++ {
		tp.Demand[v] = dem[tree.Stage[v]]
	}
	res, err := benders.SolveTreeLPCtx(ctx, tp, opts)
	if err != nil {
		return nil, 0, err
	}
	transferOut := 0.0
	for _, d := range dem {
		transferOut += par.Pricing.TransferOutPerGB * d
	}
	return res, res.Bound + transferOut, nil
}
