// Package demand provides the per-instance data-service demand processes
// D(i,t) that drive the rental planning models. The paper samples hourly
// demand from a truncated normal N(0.4, 0.2) GB (Sec. V-A); additional
// processes (constant, diurnal, bursty) support the sensitivity studies and
// examples.
package demand

import (
	"fmt"
	"math"
	"math/rand"

	"rentplan/internal/stats"
)

// Process generates a demand value (GB) for each time slot.
type Process interface {
	// At returns the demand for slot t (t = 0,1,...). Values are ≥ 0.
	At(t int) float64
	// Name identifies the process in reports.
	Name() string
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

// Name implements Process.
func (p *TruncNormal) Name() string {
	return fmt.Sprintf("truncnormal(%.2g,%.2g)", p.Mu, p.Sigma)
}

// Constant is a fixed demand per slot.
type Constant struct{ Value float64 }

// At implements Process.
func (p Constant) At(int) float64 { return p.Value }

// Name implements Process.
func (p Constant) Name() string { return fmt.Sprintf("constant(%.2g)", p.Value) }

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

// Name implements Process.
func (p Diurnal) Name() string { return fmt.Sprintf("diurnal(%.2g,%.2g)", p.Base, p.Amp) }

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

// Bursty alternates quiet and burst phases: quiet slots draw Low, and with
// probability BurstProb a slot starts a burst of BurstLen slots drawing
// High. Draws are memoised per slot.
type Bursty struct {
	Low, High float64
	BurstProb float64
	BurstLen  int
	rng       *rand.Rand
	cache     []float64
	burstLeft int
}

// NewBursty builds a bursty process.
func NewBursty(low, high, prob float64, length int, seed int64) *Bursty {
	if length < 1 {
		length = 1
	}
	return &Bursty{Low: low, High: high, BurstProb: prob, BurstLen: length, rng: stats.NewRNG(seed)}
}

// At implements Process.
func (p *Bursty) At(t int) float64 {
	for len(p.cache) <= t {
		v := p.Low
		if p.burstLeft > 0 {
			v = p.High
			p.burstLeft--
		} else if p.rng.Float64() < p.BurstProb {
			v = p.High
			p.burstLeft = p.BurstLen - 1
		}
		p.cache = append(p.cache, v)
	}
	return p.cache[t]
}

// Name implements Process.
func (p *Bursty) Name() string {
	return fmt.Sprintf("bursty(%.2g/%.2g,p=%.2g)", p.Low, p.High, p.BurstProb)
}

// Fixed wraps a pre-computed demand series (cycling if t exceeds its
// length), used to replay a specific workload.
type Fixed struct {
	Values []float64
	Label  string
}

// At implements Process.
func (p Fixed) At(t int) float64 {
	if len(p.Values) == 0 {
		return 0
	}
	return p.Values[t%len(p.Values)]
}

// Name implements Process.
func (p Fixed) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "fixed"
}
