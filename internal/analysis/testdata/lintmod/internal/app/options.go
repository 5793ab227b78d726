package app

import (
	"example.com/lintmod/internal/lp"
)

// optionsFireAndForget discards a solve with non-default options: true
// positive. The pricing/dual option surface routes through the same entry
// points, so the analyzer must keep flagging these call sites unchanged.
func optionsFireAndForget(p *lp.Problem) {
	lp.SolveWithOptions(p, lp.Options{FullPricing: true}) // want rentlint/checkedstatus
}

// optionsNoStatus consumes a solution without reading Status: true
// positive.
func optionsNoStatus(p *lp.Problem) float64 {
	sol, err := lp.SolveWithOptions(p, lp.Options{FullPricing: true, NoDual: true}) // want rentlint/checkedstatus
	if err != nil {
		return 0
	}
	return sol.Obj // want rentlint/statusflow
}

// optionsChecked examines both the error and the status: true negative.
func optionsChecked(p *lp.Problem) (float64, error) {
	sol, err := lp.SolveWithOptions(p, lp.Options{FullPricing: true})
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return 0, errNotOptimal
	}
	return sol.Obj, nil
}
