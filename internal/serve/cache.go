package serve

import (
	"math"
	"sync"

	"rentplan/internal/lp"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

// treeKey identifies one bid-adjusted scenario tree by exactly the inputs
// scenario.Build reads: the VM class (fixing the on-demand rate λ), hashes
// of the base distribution and of the per-stage bids, the stages actually
// built (a step re-plan near the end of its horizon builds fewer than its
// lookahead), the branch cap and the current spot price at the root. An
// srrp request and a step re-plan with equal inputs get the same key, so
// every tenant planning against the same market state shares one immutable
// tree, and on the capacitated MILP path the srrp solves share the root LP
// factorisation captured as a basis snapshot from the first of them.
type treeKey struct {
	class     string
	baseHash  uint64
	bidsHash  uint64
	stages    int
	maxBranch int
	rootPrice float64
}

// treeEntry is one cached tree plus the cross-tenant warm-start state that
// rides along with it.
type treeEntry struct {
	tree *scenario.Tree // immutable once built (see internal/core/clone.go)

	mu sync.Mutex
	// rootBasis is the optimal root-relaxation basis of the first MILP
	// solve over this tree, reused to warm-start later tenants' roots. The
	// basis is only valid for one problem shape, so it is keyed by the
	// demand/capacity hash of the solve that produced it.
	rootBasis *lp.Basis
	basisFor  uint64
}

// basisHash fingerprints the parts of a solve that determine the MILP
// structure beyond the tree: the demand series and the capacity series.
func basisHash(dem, capacity []float64) uint64 {
	return hashFloats(hashFloats(fnvOffset, dem), capacity)
}

// loadBasis returns the cached root basis when it was produced by a solve
// with the same demand/capacity fingerprint.
func (e *treeEntry) loadBasis(for64 uint64) *lp.Basis {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rootBasis != nil && e.basisFor == for64 {
		return e.rootBasis
	}
	return nil
}

// storeBasis publishes a root basis for the given fingerprint; the first
// writer wins, later identical solves keep the existing snapshot.
func (e *treeEntry) storeBasis(b *lp.Basis, for64 uint64) {
	if b == nil {
		return
	}
	e.mu.Lock()
	if e.rootBasis == nil || e.basisFor != for64 {
		e.rootBasis, e.basisFor = b, for64
	}
	e.mu.Unlock()
}

// treeCache is a bounded map of scenario trees shared by every tenant of
// the daemon. Eviction is whole-generation: when the cache exceeds its cap
// the oldest half (in insertion order) is dropped — simple, O(1) amortised,
// and good enough for a working set of market states that changes slowly.
type treeCache struct {
	mu      sync.Mutex
	max     int
	entries map[treeKey]*treeEntry
	order   []treeKey // insertion order for generational eviction
}

func newTreeCache(max int) *treeCache {
	if max <= 0 {
		max = 256
	}
	return &treeCache{max: max, entries: make(map[treeKey]*treeEntry)}
}

// getOrBuild returns the cached entry for the key, building the tree on a
// miss. The build runs outside the cache lock: two racing builders for the
// same key construct identical trees (Build is deterministic), and the
// first insert wins. The hit return reports whether the tree was served
// from the cache.
func (c *treeCache) getOrBuild(key treeKey, build func() (*scenario.Tree, error)) (*treeEntry, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return e, true, nil
	}
	c.mu.Unlock()

	tr, err := build()
	if err != nil {
		return nil, false, err
	}
	e := &treeEntry{tree: tr}

	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[key]; ok {
		// A racing builder got there first; its entry may already carry a
		// root basis, so keep it.
		return prev, false, nil
	}
	if len(c.order) >= c.max {
		drop := c.order[:len(c.order)/2+1]
		for _, k := range drop {
			delete(c.entries, k)
		}
		c.order = append([]treeKey(nil), c.order[len(drop):]...)
	}
	c.entries[key] = e
	c.order = append(c.order, key)
	return e, false, nil
}

// len reports the number of cached trees.
func (c *treeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// keyFor derives the cache key of the tree scenario.Build would build from
// these inputs for a request of the given VM class.
func keyFor(class string, base stats.Discrete, bids []float64, cfg scenario.BuildConfig) treeKey {
	return treeKey{
		class:     class,
		baseHash:  hashFloats(hashFloats(fnvOffset, base.Values), base.Probs),
		bidsHash:  hashFloats(fnvOffset, bids),
		stages:    cfg.Stages,
		maxBranch: cfg.MaxBranch,
		rootPrice: cfg.RootPrice,
	}
}

// FNV-64a parameters (hash/fnv), inlined so a key costs no allocation.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashFloats folds the IEEE-754 bits of xs, little-endian byte by byte,
// into the FNV-64a state h, followed by a separator byte so {1},{2} and
// {1,2},{} hash differently.
func hashFloats(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		bits := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(bits >> (8 * i)))
			h *= fnvPrime
		}
	}
	h ^= 0xff
	return h * fnvPrime
}
