package core

import (
	"math"
	"testing"

	"rentplan/internal/benders"
	"rentplan/internal/lp"
	"rentplan/internal/market"
	"rentplan/internal/scenario"
)

// srrpExtensiveLP builds the extensive-form LP relaxation (χ ∈ [0,1]) of an
// uncapacitated SRRP tree with the tight forcing bounds the nested solver
// uses, without the transfer-out constant. Variables are α_v, β_v, χ_v.
func srrpExtensiveLP(par Params, tree *scenario.Tree, dem []float64) *lp.Problem {
	n := tree.N()
	remain := make([]float64, len(dem)+1) // demand from a stage to the end
	for k := len(dem) - 1; k >= 0; k-- {
		remain[k] = dem[k] + remain[k+1]
	}
	alpha := func(v int) int { return v }
	beta := func(v int) int { return n + v }
	chi := func(v int) int { return 2*n + v }
	p := newLP(3 * n)
	for v := 0; v < n; v++ {
		p.C[alpha(v)] = tree.Prob[v] * par.UnitGenCost()
		p.C[beta(v)] = tree.Prob[v] * par.HoldingCost()
		p.C[chi(v)] = tree.Prob[v] * tree.Price[v]
		p.Upper[chi(v)] = 1
		d := dem[tree.Stage[v]]
		if v == 0 {
			addRowNZ(p, eqRel, d-par.Epsilon, nz{alpha(v), 1}, nz{beta(v), -1})
		} else {
			addRowNZ(p, eqRel, d, nz{alpha(v), 1}, nz{beta(v), -1}, nz{beta(tree.Parent[v]), 1})
		}
		addRowNZ(p, leRel, 0, nz{alpha(v), 1}, nz{chi(v), -remain[tree.Stage[v]]})
		addRowNZ(p, leRel, 0, nz{alpha(v), 1}, nz{beta(v), -1}, nz{chi(v), -d})
	}
	return p
}

// TestLShapedMatchesExtensiveFormAndBoundsMILP solves a two-stage SRRP tree
// (the recourse problem of the classic L-shaped method) by the nested
// method: its bound equals the extensive-form LP and, with the transfer-out
// constant, stays below the exact (integer) SRRP optimum.
func TestLShapedMatchesExtensiveFormAndBoundsMILP(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	par.Epsilon = 0.1
	tree := srrpTree(t, 1, 0.060)
	dem := []float64{0.4, 0.5}
	res, bound, err := SolveSRRPNestedLShaped(par, tree, dem, benders.NestedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence after %d iterations", res.Iterations)
	}
	esol, err := lp.Solve(srrpExtensiveLP(par, tree, dem))
	if err != nil || esol.Status != lp.StatusOptimal {
		t.Fatalf("extensive form: %v %v", esol, err)
	}
	if math.Abs(res.Bound-esol.Obj) > 1e-6 {
		t.Fatalf("nested %v != extensive %v", res.Bound, esol.Obj)
	}
	exact, err := SolveSRRP(par, tree, dem)
	if err != nil {
		t.Fatal(err)
	}
	if bound > exact.ExpCost+1e-9 {
		t.Fatalf("LP relaxation %v exceeds exact %v", bound, exact.ExpCost)
	}
}

// TestSolveSRRPTwoStageLShapedWrapper passes each non-default NestedOptions
// value through the SRRP wrapper on a two-stage tree: the bound is the
// default solve's, and the first stage covers the root demand.
func TestSolveSRRPTwoStageLShapedWrapper(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	tree := srrpTree(t, 1, 0.058)
	dem := []float64{0.4, 0.4}
	_, want, err := SolveSRRPNestedLShaped(par, tree, dem, benders.NestedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []benders.NestedOptions{{NoWarmStart: true}, {Workers: 2}} {
		res, bound, err := SolveSRRPNestedLShaped(par, tree, dem, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !res.Converged || bound <= 0 {
			t.Fatalf("%+v: bad result %+v", opts, res)
		}
		if math.Abs(bound-want) > 1e-6 {
			t.Fatalf("%+v: bound %v != default %v", opts, bound, want)
		}
		if res.RootAlpha+par.Epsilon < dem[0]-1e-6 {
			t.Fatalf("%+v: first stage under-produces: α %v + ε %v", opts, res.RootAlpha, par.Epsilon)
		}
	}
}

// TestNestedLShapedBoundsSRRP checks the nested relaxation against the
// exact SRRP on a 5-stage tree and on two-stage trees (one future stage,
// the recourse problem of the classic L-shaped method).
func TestNestedLShapedBoundsSRRP(t *testing.T) {
	for _, tc := range []struct {
		name    string
		future  int // stages below the root
		bid     float64
		epsilon float64
		dem     []float64
	}{
		{"five stages", 4, 0.060, 0.2, []float64{0.4, 0.5, 0.3, 0.6, 0.4}},
		{"two stages", 1, 0.060, 0.1, []float64{0.4, 0.5}},
		{"two stages, no initial storage", 1, 0.058, 0, []float64{0.4, 0.4}},
	} {
		par := DefaultParams(market.C1Medium)
		par.Epsilon = tc.epsilon
		tree := srrpTree(t, tc.future, tc.bid)
		res, bound, err := SolveSRRPNestedLShaped(par, tree, tc.dem, benders.NestedOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: no convergence in %d iterations", tc.name, res.Iterations)
		}
		exact, err := SolveSRRP(par, tree, tc.dem)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if bound > exact.ExpCost+1e-6 {
			t.Fatalf("%s: nested bound %v exceeds exact %v", tc.name, bound, exact.ExpCost)
		}
		// The lot-sizing relaxation with tight forcing bounds is strong: the
		// bound should land within a few percent of the integer optimum.
		if bound < 0.8*exact.ExpCost {
			t.Fatalf("%s: nested bound %v surprisingly loose vs exact %v", tc.name, bound, exact.ExpCost)
		}
		// Root decisions are within their boxes.
		if res.RootChi < -1e-9 || res.RootChi > 1+1e-9 || res.RootAlpha < -1e-9 {
			t.Fatalf("%s: bad root decisions %+v", tc.name, res)
		}
		// Root production plus the initial storage covers the root demand.
		if res.RootAlpha+par.Epsilon < tc.dem[0]-1e-6 {
			t.Fatalf("%s: root under-produces: α %v + ε %v < %v", tc.name, res.RootAlpha, par.Epsilon, tc.dem[0])
		}
	}
}

func TestNestedLShapedErrors(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	tree := srrpTree(t, 2, 0.06)
	if _, _, err := SolveSRRPNestedLShaped(par, tree, []float64{1}, benders.NestedOptions{}); err == nil {
		t.Fatal("want demand mismatch error")
	}
	capPar := par
	capPar.ConsumptionRate = 1
	capPar.Capacity = []float64{1, 1, 1}
	if _, _, err := SolveSRRPNestedLShaped(capPar, tree, []float64{1, 1, 1}, benders.NestedOptions{}); err == nil {
		t.Fatal("want capacitated error")
	}
}
