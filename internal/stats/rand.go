package stats

import (
	"math"
	"math/rand"
)

// NewRNG returns a deterministic random source for reproducible simulations.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TruncNormal draws from N(mu, sigma²) truncated to [lo, hi] by rejection
// with an interval-inversion fallback for far tails.
func TruncNormal(rng *rand.Rand, mu, sigma, lo, hi float64) float64 {
	if lo >= hi {
		return lo
	}
	if sigma <= 0 {
		return math.Min(math.Max(mu, lo), hi)
	}
	// Rejection sampling is cheap when the interval carries real mass.
	for i := 0; i < 64; i++ {
		x := mu + sigma*rng.NormFloat64()
		if x >= lo && x <= hi {
			return x
		}
	}
	// Inverse-CDF sampling over the truncated interval.
	a := NormalCDF((lo - mu) / sigma)
	b := NormalCDF((hi - mu) / sigma)
	u := a + rng.Float64()*(b-a)
	x := mu + sigma*NormalQuantile(u)
	// Far tails exhaust float precision in the CDF; clamp to the interval.
	return math.Min(math.Max(x, lo), hi)
}

// PositiveNormal draws from N(mu, sigma²) truncated to (0, ∞). This matches
// the paper's demand process: "sampled from a normal distribution N(0.4,0.2)
// ... and is always positive".
func PositiveNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return TruncNormal(rng, mu, sigma, math.Nextafter(0, 1), math.Inf(1))
}

// Discrete is a finite discrete probability distribution with ascending,
// de-duplicated support. It is the "base probability distribution" object of
// Sec. IV-C: the summarised empirical distribution of a price window.
type Discrete struct {
	Values []float64
	Probs  []float64
}

// NewDiscreteFromSamples summarises a sample into a discrete distribution by
// quantising values to the given resolution (e.g. 1e-4 dollars) and counting.
// A resolution ≤ 0 keeps exact values.
func NewDiscreteFromSamples(xs []float64, resolution float64) Discrete {
	counts := map[float64]int{}
	for _, x := range xs {
		v := x
		if resolution > 0 {
			v = math.Round(x/resolution) * resolution
		}
		counts[v]++
	}
	d := Discrete{
		Values: make([]float64, 0, len(counts)),
		Probs:  make([]float64, 0, len(counts)),
	}
	for v := range counts {
		d.Values = append(d.Values, v)
	}
	sortFloats(d.Values)
	n := float64(len(xs))
	for _, v := range d.Values {
		d.Probs = append(d.Probs, float64(counts[v])/n)
	}
	return d
}

func sortFloats(xs []float64) {
	// Insertion sort keeps this file dependency-free of package sort churn
	// for tiny supports; fall back to O(n log n) only when needed.
	if len(xs) > 64 {
		quickSort(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func quickSort(xs []float64) {
	if len(xs) < 2 {
		return
	}
	p := xs[len(xs)/2]
	l, r := 0, len(xs)-1
	for l <= r {
		for xs[l] < p {
			l++
		}
		for xs[r] > p {
			r--
		}
		if l <= r {
			xs[l], xs[r] = xs[r], xs[l]
			l++
			r--
		}
	}
	quickSort(xs[:r+1])
	quickSort(xs[l:])
}

// Len returns the support size.
func (d Discrete) Len() int { return len(d.Values) }

// Mean returns the expectation.
func (d Discrete) Mean() float64 {
	s := 0.0
	for i, v := range d.Values {
		s += v * d.Probs[i]
	}
	return s
}

// TotalMass returns the probability sum (≈1 for a proper distribution).
func (d Discrete) TotalMass() float64 {
	s := 0.0
	for _, p := range d.Probs {
		s += p
	}
	return s
}

// Truncate returns the sub-distribution with values ≤ cut (probabilities
// not renormalised) and the removed tail mass. This is the first half of the
// paper's bid-dependent dynamic sampling step (Eq. 10).
func (d Discrete) Truncate(cut float64) (kept Discrete, tailMass float64) {
	for i, v := range d.Values {
		if v <= cut {
			kept.Values = append(kept.Values, v)
			kept.Probs = append(kept.Probs, d.Probs[i])
		} else {
			tailMass += d.Probs[i]
		}
	}
	return kept, tailMass
}

// Aggregate reduces the support to at most k states by merging adjacent
// values, weighting merged values by probability mass. Used to cap the
// scenario-tree branching factor.
func (d Discrete) Aggregate(k int) Discrete {
	n := d.Len()
	if k <= 0 || n <= k {
		return Discrete{
			Values: append([]float64(nil), d.Values...),
			Probs:  append([]float64(nil), d.Probs...),
		}
	}
	// Merge into at most k groups of (near-)equal probability mass: each
	// state joins the group its mass midpoint falls into, which is robust
	// when a single state carries most of the mass.
	total := d.TotalMass()
	target := total / float64(k)
	group := make([]int, n)
	cum := 0.0
	for i := 0; i < n; i++ {
		mid := cum + d.Probs[i]/2
		g := int(mid / target)
		if g > k-1 {
			g = k - 1
		}
		if i > 0 && g < group[i-1] {
			g = group[i-1] // groups are contiguous and nondecreasing
		}
		group[i] = g
		cum += d.Probs[i]
	}
	out := Discrete{}
	accP, accPV := 0.0, 0.0
	for i := 0; i < n; i++ {
		accP += d.Probs[i]
		accPV += d.Probs[i] * d.Values[i]
		if i == n-1 || group[i+1] != group[i] {
			out.Values = append(out.Values, accPV/accP)
			out.Probs = append(out.Probs, accP)
			accP, accPV = 0, 0
		}
	}
	return out
}
