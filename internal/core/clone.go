package core

// This file defines the request-scoped deep copies the multi-tenant serve
// layer relies on. The planning entry points themselves never mutate their
// inputs (Params and ExecConfig travel by value or behind a pointer that is
// only read, and every model builder reads its series without writing), but
// a daemon that derives thousands of per-tenant configurations from one
// shared template must not let two requests alias the same backing arrays: a
// shallow struct copy still shares Capacity, Actual, Demand, the
// base-distribution slices and the Pricing.OnDemand map, so one tenant
// patching "its" config would corrupt every sibling. Clone severs exactly
// those aliases.
//
// Sharing contract of the pieces Clone deliberately does NOT copy:
//
//   - Solver (mip.Options) is copied as a value; its Progress callback and
//     RootBasis pointer stay shared by design. A basis is an immutable
//     snapshot (see internal/lp), so concurrent solves may read one basis
//     freely, and a shared Progress callback must itself be safe for
//     concurrent invocation when solves run in parallel.
//   - Faults stays shared on purpose: a server chaos-testing every tenant on
//     one schedule wants a single injector, and the injector is safe for
//     concurrent use (internal/core/faults).
//   - BuildTree stays shared: rentpland hands every step re-plan a lookup
//     into its one tree cache, so the function must be safe for concurrent
//     use.
//   - scenario.Tree values are treated as immutable once built; cached trees
//     are shared across tenants without copying, by srrp plans and by step
//     re-plans alike, and a tenant's plan keeps pointing at the cached tree
//     it was solved on (the reentrancy suite in internal/serve guards this
//     contract).

import (
	"rentplan/internal/market"
	"rentplan/internal/stats"
)

// Clone returns a deep copy of p that can be mutated (capacity patched,
// pricing overridden, epsilon reset) without affecting the original: the
// Capacity series and the Pricing.OnDemand map get fresh backing storage.
func (p Params) Clone() Params {
	q := p // value copy covers the scalars and the Solver options
	if p.Capacity != nil {
		q.Capacity = append([]float64(nil), p.Capacity...)
	}
	if p.Pricing.OnDemand != nil {
		od := make(map[market.VMClass]float64, len(p.Pricing.OnDemand))
		for k, v := range p.Pricing.OnDemand {
			od[k] = v
		}
		q.Pricing.OnDemand = od
	}
	return q
}

// Clone returns a deep copy of c: Par is cloned, and the Actual/Demand
// series and the base distribution's support get fresh backing storage. The
// Faults injector and the BuildTree source are shared (see the file comment
// above).
func (c *ExecConfig) Clone() *ExecConfig {
	if c == nil {
		return nil
	}
	q := *c
	q.Par = c.Par.Clone()
	if c.Actual != nil {
		q.Actual = append([]float64(nil), c.Actual...)
	}
	if c.Demand != nil {
		q.Demand = append([]float64(nil), c.Demand...)
	}
	q.Base = cloneDiscrete(c.Base)
	return &q
}

func cloneDiscrete(d stats.Discrete) stats.Discrete {
	var q stats.Discrete
	if d.Values != nil {
		q.Values = append([]float64(nil), d.Values...)
	}
	if d.Probs != nil {
		q.Probs = append([]float64(nil), d.Probs...)
	}
	return q
}
