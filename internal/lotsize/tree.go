package lotsize

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// TreeProblem is stochastic uncapacitated lot-sizing on a scenario tree —
// the structure of SRRP's deterministic equivalent (Eq. 13–19) without the
// bottleneck constraint. Vertices are indexed 0..n−1 in topological order
// (Parent[v] < v, Parent[0] = −1). Prob[v] is the absolute probability p_v
// of reaching vertex v (Σ over each stage = 1). Costs are unweighted; the
// solver applies the probability weights of objective (13).
//
// The inventory β is a *state variable*: β_v = β_{π(v)} + α_v − D_v must be
// nonnegative at every vertex, so production decisions hedge across
// branches (the same stored data serves whichever scenario unfolds).
type TreeProblem struct {
	Parent []int
	Prob   []float64
	// Setup, Unit, Hold and Demand are per-vertex cost/demand data:
	// Setup_v = Ĉp(i,τ(v)), Unit_v = C⁺f·Φ, Hold_v = Cs+Cio, Demand_v = D.
	Setup  []float64
	Unit   []float64
	Hold   []float64
	Demand []float64
	// InitialInventory is the ε of constraint (17) at the root.
	InitialInventory float64
}

// N returns the number of vertices.
func (p *TreeProblem) N() int { return len(p.Parent) }

func (p *TreeProblem) validate() error {
	n := p.N()
	if n == 0 {
		return errors.New("lotsize: empty tree")
	}
	if len(p.Prob) != n || len(p.Setup) != n || len(p.Unit) != n || len(p.Hold) != n || len(p.Demand) != n {
		return errors.New("lotsize: tree slice length mismatch")
	}
	if p.Parent[0] != -1 {
		return errors.New("lotsize: vertex 0 must be the root (Parent[0] = -1)")
	}
	if !usable(p.InitialInventory) {
		return fmt.Errorf("lotsize: initial inventory %g is not finite and nonnegative", p.InitialInventory)
	}
	for v := 0; v < n; v++ {
		if v > 0 && (p.Parent[v] < 0 || p.Parent[v] >= v) {
			return fmt.Errorf("lotsize: vertex %d has invalid parent %d (need topological order)", v, p.Parent[v])
		}
		// !(p > 0) also rejects NaN; the upper bound rejects +Inf.
		if !(p.Prob[v] > 0) || p.Prob[v] > 1+1e-9 {
			return fmt.Errorf("lotsize: vertex %d has probability %g outside (0,1]", v, p.Prob[v])
		}
		if what := badDatum(p.Setup[v], p.Unit[v], p.Hold[v], p.Demand[v]); what != "" {
			return fmt.Errorf("lotsize: vertex %d %s is not finite and nonnegative", v, what)
		}
	}
	return nil
}

// TreeSolution is an optimal plan for a TreeProblem.
type TreeSolution struct {
	// Cost is the optimal probability-weighted objective, including the
	// holding cost of carrying the initial inventory.
	Cost float64
	// Produce is α_v, Setup is χ_v, Inventory is β_v per vertex.
	Produce   []float64
	Setup     []bool
	Inventory []float64
}

// SolveTree solves the tree problem exactly by a dynamic program in the
// spirit of Guan & Miller's polynomial algorithm for stochastic
// uncapacitated lot-sizing.
//
// Substituting β_v = Y_v − cumD_v (with Y_v = ε + Σ_{u⪯v} α_u the path-
// cumulative supply and cumD_v the path-cumulative demand) turns the
// objective into
//
//	Σ_v p_v·Setup_v·χ_v + ĉ_v·α_v  +  Σ_v p_v·Hold_v·(ε − cumD_v),
//
// where ĉ_v = p_v·Unit_v + Σ_{w ∈ subtree(v)} p_w·Hold_w ≥ 0 and the second
// sum is a constant. Feasibility is the covering condition Y_v ≥ cumD_v.
// Because every ĉ_v ≥ 0, an optimal solution raises Y only to values in
// {cumD_w : w ∈ subtree(v)} (a binding future requirement), which yields a
// finite DP over states (v, Y entering v). Y only ever takes the value ε or
// a cumulative demand, so the memo is one table indexed by (v, rank of Y)
// among the K sorted distinct values of those: n·K entries, where K ≤
// stages+2 when demand is per stage. The working buffers come from a pool,
// so a call allocates only its TreeSolution.
func SolveTree(p *TreeProblem) (*TreeSolution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	s := newTreeScratch(p)
	defer s.release()
	return s.solution()
}

// treeTol is the covering tolerance of the tree DP: a supply within treeTol
// below a cumulative demand covers it, and a target within treeTol above
// the supply is no production.
const treeTol = 1e-12

// treeState is one memoised DP state (v, rank r of the supply entering v).
type treeState struct {
	cost float64
	// next is one plus the rank of the supply leaving v: the production
	// target, or r itself when v produces nothing. Zero marks a state not
	// solved yet.
	next int32
}

// treeScratch is the working state of one SolveTree call. treePool
// recycles it, so the buffers are reused across solves; reset sizes and
// re-derives every one, and release drops the caller's problem, so a pooled
// scratch pins nothing of it.
type treeScratch struct {
	p    *TreeProblem
	k    int       // number of ranks
	vals []float64 // vals[r]: the value of rank r, ascending
	cumD []float64 // path-cumulative demand
	chat []float64 // modified unit cost ĉ_v
	// Children of v, ascending: child[childOff[v]:childOff[v+1]].
	childOff, child []int32
	// Ranks of the distinct cumulative demands in v's subtree, ascending:
	// tgt[tgtOff[v+1]:tgtOff[v]]. The lists are laid down from the last
	// vertex to the root, so the offsets descend.
	tgtOff, tgt []int32
	seen        []int32     // seen[r] = v+1 once rank r is in v's target list
	memo        []treeState // memo[v*k+r]
	out         []int32     // the replay's rank of the supply leaving each vertex
}

var treePool = sync.Pool{New: func() any { return new(treeScratch) }}

func newTreeScratch(p *TreeProblem) *treeScratch {
	s := treePool.Get().(*treeScratch)
	s.reset(p)
	return s
}

// release returns the scratch to the pool. The TreeSolution shares no
// memory with it.
func (s *treeScratch) release() {
	s.p = nil
	treePool.Put(s)
}

// grow returns buf resized to n, reusing its backing array when it is large
// enough. The contents are stale; callers overwrite or clear them.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// reset derives the DP's inputs for p: children, cumulative demands, ĉ, the
// ranks and every vertex's target list, and an unsolved memo.
func (s *treeScratch) reset(p *TreeProblem) {
	n := p.N()
	s.p = p
	off, kids := grow(s.childOff, n+1), grow(s.child, n)
	clear(off)
	for v := 1; v < n; v++ {
		off[p.Parent[v]+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	for v := 1; v < n; v++ { // off[u] walks u's range, ending at the next start
		kids[off[p.Parent[v]]] = int32(v)
		off[p.Parent[v]]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	s.childOff, s.child = off, kids

	cumD := grow(s.cumD, n)
	for v := 0; v < n; v++ {
		if v == 0 {
			cumD[0] = p.Demand[0]
		} else {
			cumD[v] = cumD[p.Parent[v]] + p.Demand[v]
		}
	}
	// Subtree holding mass H_v = Σ_{w ∈ subtree(v)} p_w·Hold_w in reverse
	// topological order, then ĉ_v = p_v·Unit_v + H_v in place.
	chat := grow(s.chat, n)
	for v := n - 1; v >= 0; v-- {
		chat[v] = p.Prob[v] * p.Hold[v]
		for _, c := range kids[off[v]:off[v+1]] {
			chat[v] += chat[c]
		}
	}
	for v := 0; v < n; v++ {
		chat[v] = p.Prob[v]*p.Unit[v] + chat[v]
	}
	s.cumD, s.chat = cumD, chat

	vals := append(append(s.vals[:0], cumD...), p.InitialInventory)
	slices.Sort(vals)
	k := 0
	for _, x := range vals {
		if k == 0 || vals[k-1] != x { //lint:ignore rentlint/floatcmp the ranks must number exactly the keys the map memo distinguished, and map keys compare with ==
			vals[k] = x
			k++
		}
	}
	s.vals, s.k = vals[:k], k

	// Target lists: v's own rank merged with its children's lists, which
	// lie earlier in the arena.
	seen, tgtOff, tgt := grow(s.seen, k), grow(s.tgtOff, n+1), s.tgt[:0]
	clear(seen)
	tgtOff[n] = 0
	for v := n - 1; v >= 0; v-- {
		start := len(tgt)
		r := int32(sort.SearchFloat64s(s.vals, cumD[v]))
		tgt, seen[r] = append(tgt, r), int32(v+1)
		for _, c := range kids[off[v]:off[v+1]] {
			for _, r := range tgt[tgtOff[c+1]:tgtOff[c]] {
				if seen[r] != int32(v+1) {
					tgt, seen[r] = append(tgt, r), int32(v+1)
				}
			}
		}
		slices.Sort(tgt[start:])
		tgtOff[v] = int32(len(tgt))
	}
	s.seen, s.tgtOff, s.tgt = seen, tgtOff, tgt

	s.memo = grow(s.memo, n*k)
	clear(s.memo)
	s.out = grow(s.out, n)
}

// solve returns the least cost of v's subtree when the cumulative supply
// entering v is vals[r], and memoises the decision that attains it.
func (s *treeScratch) solve(v int, r int32) float64 {
	st := &s.memo[v*s.k+int(r)]
	if st.next != 0 {
		return st.cost
	}
	p, y, kids := s.p, s.vals[r], s.child[s.childOff[v]:s.childOff[v+1]]
	best, next := math.Inf(1), r
	// Option 1: no production at v (feasible if supply already covers the
	// cumulative demand through v).
	if y >= s.cumD[v]-treeTol {
		c := 0.0
		for _, ch := range kids {
			c += s.solve(int(ch), r)
		}
		if c < best {
			best = c
		}
	}
	// Option 2: produce up to a binding future requirement t > y.
	for _, rt := range s.tgt[s.tgtOff[v+1]:s.tgtOff[v]] {
		t := s.vals[rt]
		if t <= y+treeTol || t < s.cumD[v]-treeTol {
			continue
		}
		c := p.Prob[v]*p.Setup[v] + s.chat[v]*(t-y)
		if c >= best {
			continue // children costs are ≥ 0; prune
		}
		for _, ch := range kids {
			c += s.solve(int(ch), rt)
			if c >= best {
				break
			}
		}
		if c < best {
			best, next = c, rt
		}
	}
	*st = treeState{cost: best, next: next + 1}
	return best
}

// solution runs the DP from the root and replays its decisions top-down:
// parents precede children, so index order visits each vertex after the
// supply it inherits is known.
func (s *treeScratch) solution() (*TreeSolution, error) {
	p, n := s.p, s.p.N()
	eps := p.InitialInventory
	// ε = +0 may share its rank with a cumulative demand of −0; the rank
	// then carries ε's own bits, as the map memo's first key did.
	rEps := int32(sort.SearchFloat64s(s.vals, eps))
	s.vals[rEps] = eps
	root := s.solve(0, rEps)
	if math.IsInf(root, 1) {
		return nil, errors.New("lotsize: infeasible tree plan (internal error)")
	}
	constCost := 0.0
	for v := 0; v < n; v++ {
		constCost += p.Prob[v] * p.Hold[v] * (eps - s.cumD[v])
	}
	sol := &TreeSolution{
		Cost:      root + constCost,
		Produce:   make([]float64, n),
		Setup:     make([]bool, n),
		Inventory: make([]float64, n),
	}
	for v := 0; v < n; v++ {
		r := rEps
		if v > 0 {
			r = s.out[p.Parent[v]]
		}
		st := s.memo[v*s.k+int(r)]
		if st.next == 0 {
			return nil, errors.New("lotsize: reconstruction state missing (internal error)")
		}
		if next := st.next - 1; next != r {
			sol.Produce[v] = s.vals[next] - s.vals[r]
			sol.Setup[v] = true
			r = next
		}
		sol.Inventory[v] = s.vals[r] - s.cumD[v]
		if sol.Inventory[v] < 0 && sol.Inventory[v] > -1e-9 {
			sol.Inventory[v] = 0
		}
		s.out[v] = r
	}
	return sol, nil
}
