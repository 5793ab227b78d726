package serve

import (
	"sync"

	"rentplan/internal/core"
	"rentplan/internal/lp"
)

// tenant holds the rolling-horizon state of one application between step
// requests: what plan reuse reads of the previous stochastic plan, the
// executed path through its tree, and the last MILP root basis for
// warm-starting the next re-plan. All fields are guarded by mu; a tenant's
// requests are serialised on it, so two concurrent requests for the same
// tenant cannot interleave their read-modify-write of the plan state (they
// queue, in arrival order at the mutex). Distinct tenants share nothing
// except the immutable trees of the tree cache.
type tenant struct {
	mu sync.Mutex

	// plan is the last stochastic plan cut to what plan reuse reads: its
	// tree (the cache's, shared), ExpCost and Breakdown, and Alpha/Chi of
	// only the vertices at a stage below the stride it was planned with,
	// which scenario.Build numbers first; Beta is dropped. plan.Tree is nil
	// before the first plan. planStart is its root slot; path the vertex
	// path executed so far (path[0] == 0, the root).
	plan      core.StochasticPlan
	planStart int
	path      []int

	// basis is the root basis of the tenant's last re-plan that ran
	// branch-and-bound, fed back through Params.Solver.RootBasis on the
	// next capacitated one. The MILP shape of a rolling re-plan changes with
	// the remaining horizon, so the basis is fingerprinted like the cache's
	// (basisFor) and only reused for a structurally identical solve.
	basis    *lp.Basis
	basisFor uint64
}

// tenants is the daemon's tenant registry.
type tenants struct {
	mu sync.Mutex
	m  map[string]*tenant
}

func newTenants() *tenants { return &tenants{m: make(map[string]*tenant)} }

// get returns the named tenant, creating it on first use.
func (ts *tenants) get(name string) *tenant {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.m[name]
	if !ok {
		t = &tenant{}
		ts.m[name] = t
	}
	return t
}

// len reports the number of known tenants.
func (ts *tenants) len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.m)
}

// decisionFromPlan tries to serve the decision for slot t from the
// tenant's current plan without a new solve: the plan must be rooted at or
// before t, within the request's rolling stride, and the realised prices
// must map onto a tree path (Follow from the plan's root) that stays inside
// the stride the plan was made for, the vertices whose decisions the tenant
// kept. It returns the plan vertex for slot t, or -1 when a re-plan is
// needed. Callers hold t.mu.
func (t *tenant) decisionFromPlan(slot, stride int, actual, bid float64) int {
	if t.plan.Tree == nil || slot < t.planStart || slot >= t.planStart+stride {
		return -1
	}
	k := slot - t.planStart
	// Every intermediate slot advances with the same realised price the
	// request reports for the current slot's root; in the common one-slot
	// stride Follow takes at most one step.
	var ok bool
	if t.path, ok = t.plan.Follow(t.path, k, func(int) (float64, float64) { return actual, bid }); !ok {
		return -1
	}
	return t.path[k]
}

// resetPlan installs a fresh plan rooted at slot, planned with the given
// stride, keeping only the decisions of the vertices at a stage below the
// stride. The tenant's previous decision buffers are reused, so the plan's
// own per-vertex vectors are garbage once the response is written.
func (t *tenant) resetPlan(plan *core.StochasticPlan, slot, stride int) {
	n := 0
	for n < plan.Tree.N() && plan.Tree.Stage[n] < stride {
		n++
	}
	t.plan = core.StochasticPlan{
		Tree:      plan.Tree,
		Alpha:     append(t.plan.Alpha[:0], plan.Alpha[:n]...),
		Chi:       append(t.plan.Chi[:0], plan.Chi[:n]...),
		ExpCost:   plan.ExpCost,
		Breakdown: plan.Breakdown,
	}
	t.planStart = slot
	t.path = t.path[:0]
	t.path = append(t.path, 0)
}
