// Package demand provides the per-instance data-service demand processes
// D(i,t) that drive the rental planning models. The paper samples hourly
// demand from a truncated normal N(0.4, 0.2) GB (Sec. V-A); a diurnal
// day/night cycle drives the fleet simulator and the examples.
package demand

import (
	"math"
	"math/rand"

	"rentplan/internal/stats"
)

// Process generates a demand value (GB) for each time slot.
type Process interface {
	// At returns the demand for slot t (t = 0,1,...). Values are ≥ 0.
	At(t int) float64
}

// Series materialises the first n slots of a process.
func Series(p Process, n int) []float64 {
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		out[t] = p.At(t)
	}
	return out
}

// TruncNormal is the paper's default demand: i.i.d. N(mu, sigma²) truncated
// to positive values. Draws are memoised so At is deterministic per slot.
type TruncNormal struct {
	Mu, Sigma float64
	rng       *rand.Rand
	cache     []float64
}

// NewTruncNormal builds the paper's N(0.4, 0.2) process when mu=0.4,
// sigma=0.2.
func NewTruncNormal(mu, sigma float64, seed int64) *TruncNormal {
	return &TruncNormal{Mu: mu, Sigma: sigma, rng: stats.NewRNG(seed)}
}

// At returns the demand for slot t.
func (p *TruncNormal) At(t int) float64 {
	for len(p.cache) <= t {
		p.cache = append(p.cache, stats.PositiveNormal(p.rng, p.Mu, p.Sigma))
	}
	return p.cache[t]
}

// Diurnal follows a day/night cycle: Base·(1 + Amp·sin(2π(t−Phase)/24)),
// clamped at zero.
type Diurnal struct {
	Base, Amp float64
	Phase     int
}

// At implements Process.
func (p Diurnal) At(t int) float64 {
	v := p.Base * (1 + p.Amp*sin24(t-p.Phase))
	if v < 0 {
		return 0
	}
	return v
}

func sin24(t int) float64 {
	// Small fixed table keeps the process integer-exact and allocation-free.
	return sinTable[((t%24)+24)%24]
}

// Sin24 exposes the tabulated 24-hour sine used by Diurnal. The fleet
// simulator's lite engine integrates diurnal demand over a whole epoch from
// the sum of exactly these values, so its accounting agrees with the
// per-slot Diurnal.At walk it replaces.
func Sin24(t int) float64 { return sin24(t) }

var sinTable = func() [24]float64 {
	var tbl [24]float64
	for i := 0; i < 24; i++ {
		tbl[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	return tbl
}()
