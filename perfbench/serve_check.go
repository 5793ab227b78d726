package main

import (
	"context"
	"fmt"

	"rentplan/internal/core"
	"rentplan/internal/mip"
	"rentplan/internal/scenario"
)

// answerTol is the relative tolerance of every serve answer check.
const answerTol = 1e-7

// refParams are the model parameters of a request as the daemon builds
// them, with every warm start and basis sharing switched off and a serial
// branch-and-bound, so the reference is the plain cold solve.
func refParams(sh serveShape, j *job) core.Params {
	par := daemonParams(sh, j)
	par.Solver = mip.Options{NoWarmStart: true, Workers: 1}
	return par
}

// srrpKey identifies a cohort-shared srrp instance: every join of one
// cohort with one lookahead in one market round is the same problem.
type srrpKey struct{ cohort, stages, round int }

// reference solves a job's instance in process and returns the expected
// cost the daemon should have answered. A capacitated instance is first
// solved with its capacities dropped by the exact tree DP: when that plan
// respects every capacity it is optimal for the capacitated instance too
// (it is feasible there, and the capacitated optimum cannot beat the
// relaxation), so the DP is an exact, independent reference. Instances
// whose capacities bind get the cold serial MILP.
func reference(sh serveShape, j *job) (float64, error) {
	par := refParams(sh, j)
	if par.Capacitated() {
		relaxed := par
		relaxed.Capacity, relaxed.ConsumptionRate = nil, 0
		plan, err := referencePlan(sh, j, relaxed)
		if err != nil {
			return 0, err
		}
		if respects(plan, par) {
			return plan.ExpCost, nil
		}
	}
	plan, err := referencePlan(sh, j, par)
	if err != nil {
		return 0, err
	}
	return plan.ExpCost, nil
}

// respects reports whether every vertex's production fits its stage
// capacity.
func respects(plan *core.StochasticPlan, par core.Params) bool {
	for v, a := range plan.Alpha {
		if par.ConsumptionRate*a > par.Capacity[plan.Tree.Stage[v]]+1e-9 {
			return false
		}
	}
	return true
}

// referencePlan plans a job's instance under par.
func referencePlan(sh serveShape, j *job, par core.Params) (*core.StochasticPlan, error) {
	t, c := j.t, j.t.c
	if j.srrp {
		lambda, err := par.OnDemandRate()
		if err != nil {
			return nil, err
		}
		tree, err := scenario.Build(c.base, constants(t.stages, c.bid), lambda, scenario.BuildConfig{
			Stages: t.stages, MaxBranch: maxBranch, RootPrice: c.price(j.round),
		})
		if err != nil {
			return nil, err
		}
		return core.SolveSRRP(par, tree, c.joins[t.stages].demand)
	}
	T := len(t.demand)
	cfg := &core.ExecConfig{
		Par: par, Actual: constants(T, c.price(j.round)), Demand: t.demand, Base: c.base,
		TreeStages: t.stages, MaxBranch: maxBranch, Replan: 2,
	}
	plan, rung, err := core.PlanStochasticStepCtx(context.Background(), cfg, constants(T, c.bid), j.slot, j.inv)
	if err != nil {
		return nil, err
	}
	if plan == nil || rung != core.RungFull {
		return nil, fmt.Errorf("reference step planned on rung %v", rung)
	}
	return plan, nil
}

// checkAnswers matches every srrp answer and every freshly solved
// full-rung step answer against an in-process reference solve, and every
// plan-reuse answer against the plan it reused. It returns one line per
// wrong answer, keyed by the job's sequence number.
func checkAnswers(sh serveShape, jobs []*job) map[int]string {
	wrong := map[int]string{}
	flag := func(j *job, format string, args ...interface{}) {
		wrong[j.seq] = fmt.Sprintf("request %d (%s): ", j.seq, j.t.name) + fmt.Sprintf(format, args...)
	}
	var tasks []*job
	srrpFirst := map[srrpKey]*job{}
	for _, j := range jobs {
		if !j.ok() {
			continue
		}
		if !j.srrp && j.ans.Generate != nil && j.inv+*j.ans.Generate < j.t.demand[j.slot]-1e-6 {
			flag(j, "generates %v with inventory %v for demand %v", *j.ans.Generate, j.inv, j.t.demand[j.slot])
			continue
		}
		switch {
		case j.srrp:
			k := srrpKey{j.t.c.id, j.t.stages, j.round}
			if _, ok := srrpFirst[k]; !ok {
				srrpFirst[k] = j
				tasks = append(tasks, j)
			}
		case j.ans.PlanReuse:
			p := j.prev
			if p == nil || p.srrp || !p.ok() || p.ans.PlanReuse {
				flag(j, "plan reuse without a fresh plan at the previous slot")
			} else if j.ans.Cost != p.ans.Cost {
				flag(j, "reused plan cost %v, the plan answered %v", j.ans.Cost, p.ans.Cost)
			}
		case j.ans.Rung == core.RungFull.String():
			tasks = append(tasks, j)
		}
	}

	refs := make([]float64, len(tasks))
	errs := make([]error, len(tasks))
	_ = forEach(len(tasks), func(i int) error { // errors are flagged per task below
		refs[i], errs[i] = reference(sh, tasks[i])
		return nil
	})

	srrpRef := map[srrpKey]float64{}
	for i, j := range tasks {
		if errs[i] != nil {
			flag(j, "reference solve failed: %v", errs[i])
			continue
		}
		if j.srrp {
			srrpRef[srrpKey{j.t.c.id, j.t.stages, j.round}] = refs[i]
			continue
		}
		if e := relErr(j.ans.Cost, refs[i]); e > answerTol {
			flag(j, "step cost %v, reference %v (rel err %.3g)", j.ans.Cost, refs[i], e)
		}
	}
	for _, j := range jobs {
		if !j.ok() || !j.srrp || j.ans.Rung != core.RungFull.String() {
			continue
		}
		ref, ok := srrpRef[srrpKey{j.t.c.id, j.t.stages, j.round}]
		if !ok {
			continue // its reference failed and was reported above
		}
		if e := relErr(j.ans.Cost, ref); e > answerTol {
			flag(j, "srrp cost %v, reference %v (rel err %.3g)", j.ans.Cost, ref, e)
		}
	}
	return wrong
}
