// Scenario reduction and sample-average approximation (SAA) for the
// multistage trees: a Fan is a flat empirical scenario set (price paths
// with probabilities), sampled from a tree or sliced from a historical
// trace, and Reduce shrinks it by the backward reduction of Dupačová,
// Gröwe-Kuska and Römisch, returning a transport-distance bound on the
// optimal-value error the reduction can introduce.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"rentplan/internal/num"
)

// Fan is a flat set of equally-long scenario paths with probabilities: the
// empirical (SAA) counterpart of a Tree. Paths[i][t] is the spot price of
// scenario i at stage t, with Paths[i][0] the (known) root-stage price.
type Fan struct {
	Paths [][]float64
	Probs []float64
}

// Len returns the number of scenarios.
func (f *Fan) Len() int { return len(f.Paths) }

// Stages returns the number of stages per path including the root stage
// (0 for an empty fan).
func (f *Fan) Stages() int {
	if len(f.Paths) == 0 {
		return 0
	}
	return len(f.Paths[0])
}

// Validate checks structural consistency: at least one path, equal path
// lengths, finite positive prices, positive probabilities with total mass
// 1 within num.ProbMassTol.
func (f *Fan) Validate() error {
	if len(f.Paths) == 0 {
		return errors.New("scenario: empty fan")
	}
	if len(f.Probs) != len(f.Paths) {
		return fmt.Errorf("scenario: %d paths, %d probabilities", len(f.Paths), len(f.Probs))
	}
	T := len(f.Paths[0])
	if T == 0 {
		return errors.New("scenario: zero-length paths")
	}
	mass := 0.0
	for i, path := range f.Paths {
		if len(path) != T {
			return fmt.Errorf("scenario: path %d length %d, want %d", i, len(path), T)
		}
		for t, pr := range path {
			if math.IsNaN(pr) || math.IsInf(pr, 0) || pr <= 0 {
				return fmt.Errorf("scenario: path %d stage %d price %g", i, t, pr)
			}
		}
		p := f.Probs[i]
		if !(p > 0) || p > 1+num.ProbMassTol {
			return fmt.Errorf("scenario: path %d probability %g", i, p)
		}
		mass += p
	}
	if mass < 1-num.ProbMassTol || mass > 1+num.ProbMassTol {
		return fmt.Errorf("scenario: fan probability mass %g != 1", mass)
	}
	return nil
}

// Clone returns a deep copy of the fan.
func (f *Fan) Clone() *Fan {
	nf := &Fan{
		Paths: make([][]float64, len(f.Paths)),
		Probs: append([]float64(nil), f.Probs...),
	}
	for i, p := range f.Paths {
		nf.Paths[i] = append([]float64(nil), p...)
	}
	return nf
}

// SampleFan draws n equally-weighted scenario paths from the tree — the
// empirical SAA measure of the tree's path distribution. The draw is fully
// determined by rng, so a seeded source gives reproducible fans.
func (t *Tree) SampleFan(n int, rng *rand.Rand) (*Fan, error) {
	if n <= 0 {
		return nil, errors.New("scenario: sample size must be positive")
	}
	f := &Fan{
		Paths: make([][]float64, n),
		Probs: make([]float64, n),
	}
	w := 1 / float64(n)
	for i := 0; i < n; i++ {
		f.Paths[i] = t.SampleScenario(rng)
		f.Probs[i] = w
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// pathDist is the L1 distance between two price paths — the ground metric
// of the Kantorovich transport distance used by Reduce. It dominates the
// optimal-value difference of any rental plan whose per-stage purchase
// indicator is bounded by 1 (as χ ∈ [0,1] is in SRRP), which is what turns
// the transport bound into an optimal-value bound.
func pathDist(a, b []float64) float64 {
	d := 0.0
	for t := range a {
		d += math.Abs(a[t] - b[t])
	}
	return d
}

// Reduce shrinks the fan to at most k scenarios by backward reduction:
// repeatedly delete the scenario i minimising p_i · min_{j kept} d(i,j)
// and move its probability to the nearest kept scenario. The returned
// bound accumulates those transport costs and upper-bounds the Kantorovich
// distance between the original and the reduced measures under the L1
// path metric; chained redistributions (a scenario that inherited mass and
// is later deleted itself) are covered through the triangle inequality.
// Consequently, for any value function V that is 1-Lipschitz in the L1
// path metric — the SRRP stage costs charge at most χ_t ≤ 1 units of each
// stage price — the wait-and-see optima satisfy
//
//	|Σ_i p_i V(path_i) − Σ_j q_j V(path_j)| ≤ bound.
//
// Ties in the deletion and redistribution choices break toward the lowest
// index, so the reduction is deterministic. The kept scenarios retain
// their original relative order.
func (f *Fan) Reduce(k int) (*Fan, float64, error) {
	if err := f.Validate(); err != nil {
		return nil, 0, err
	}
	if k <= 0 {
		return nil, 0, errors.New("scenario: reduction target must be positive")
	}
	m := f.Len()
	if k >= m {
		return f.Clone(), 0, nil
	}
	dist := make([][]float64, m)
	for i := 0; i < m; i++ {
		dist[i] = make([]float64, m)
		for j := 0; j < i; j++ {
			d := pathDist(f.Paths[i], f.Paths[j])
			dist[i][j], dist[j][i] = d, d
		}
	}
	kept := make([]bool, m)
	for i := range kept {
		kept[i] = true
	}
	probs := append([]float64(nil), f.Probs...)
	bound := 0.0
	for removed := 0; removed < m-k; removed++ {
		best, bestNear := -1, -1
		bestScore := math.Inf(1)
		for i := 0; i < m; i++ {
			if !kept[i] {
				continue
			}
			near, nd := -1, math.Inf(1)
			for j := 0; j < m; j++ {
				if j == i || !kept[j] {
					continue
				}
				if dist[i][j] < nd {
					near, nd = j, dist[i][j]
				}
			}
			if score := probs[i] * nd; score < bestScore {
				best, bestNear, bestScore = i, near, score
			}
		}
		kept[best] = false
		probs[bestNear] += probs[best]
		bound += bestScore
	}
	out := &Fan{}
	for i := 0; i < m; i++ {
		if kept[i] {
			out.Paths = append(out.Paths, append([]float64(nil), f.Paths[i]...))
			out.Probs = append(out.Probs, probs[i])
		}
	}
	return out, bound, nil
}

// Tree folds the fan back into a scenario tree by merging shared path
// prefixes: every path must start from the same root price, and two paths
// share a vertex exactly as long as their prices agree bit-for-bit (the
// natural notion for fans sampled from a tree, whose prices are copies of
// the tree's). Children keep first-appearance order, so the tree layout is
// deterministic. OutOfBid information is not represented in a fan and
// comes back false everywhere.
func (f *Fan) Tree() (*Tree, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	root := f.Paths[0][0]
	for i, p := range f.Paths {
		if p[0] != root { //lint:ignore rentlint/floatcmp prefix merge: fan paths from one tree carry bit-identical copies of its prices
			return nil, fmt.Errorf("scenario: path %d root price %g differs from %g", i, p[0], root)
		}
	}
	// The fan's mass may drift from 1 within tolerance; the root carries
	// the exact total so every vertex probability is a subtree mass.
	mass := 0.0
	for _, p := range f.Probs {
		mass += p
	}
	tr := &Tree{
		Parent:   []int{-1},
		Prob:     []float64{mass},
		Stage:    []int{0},
		Price:    []float64{root},
		OutOfBid: []bool{false},
	}
	T := f.Stages()
	children := [][]int{nil}
	cur := make([]int, f.Len())
	for t := 1; t < T; t++ {
		for i := range f.Paths {
			v := cur[i]
			price := f.Paths[i][t]
			found := -1
			for _, c := range children[v] {
				if tr.Price[c] == price { //lint:ignore rentlint/floatcmp prefix merge: fan paths from one tree carry bit-identical copies of its prices
					found = c
					break
				}
			}
			if found >= 0 {
				tr.Prob[found] += f.Probs[i]
			} else {
				tr.Parent = append(tr.Parent, v)
				tr.Prob = append(tr.Prob, f.Probs[i])
				tr.Stage = append(tr.Stage, t)
				tr.Price = append(tr.Price, price)
				tr.OutOfBid = append(tr.OutOfBid, false)
				children = append(children, nil)
				found = len(tr.Parent) - 1
				children[v] = append(children[v], found)
			}
			cur[i] = found
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
