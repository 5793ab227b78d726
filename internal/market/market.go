// Package market models the IaaS cloud market of the paper: VM classes with
// Amazon-style pricing (on-demand rate, storage, I/O and transfer costs) and
// a spot market whose price is set by a uniform-price auction. Because the
// historical Amazon EC2 spot traces the paper used (cloudexchange.org,
// 2010-02-01..2011-06-22) are no longer available, the package generates
// synthetic spot-price traces from an explicit auction model calibrated to
// the statistical properties the paper reports: irregular update events with
// strongly varying daily frequency, clustered non-normal marginal price
// distributions, weak autocorrelation, a mild 24-hour seasonal component, no
// trend, and a sub-3% outlier rate that grows with VM class power.
package market

import (
	"fmt"
	"math"

	"rentplan/internal/stats"
	"rentplan/internal/timeseries"
)

// VMClass identifies an EC2-style instance type.
type VMClass string

// The instance classes studied in the paper (linux, us-east-1).
const (
	C1Medium VMClass = "c1.medium"
	M1Large  VMClass = "m1.large"
	M1XLarge VMClass = "m1.xlarge"
	C1XLarge VMClass = "c1.xlarge"
)

// AllClasses lists the four classes of the Fig. 3 price study, in the
// paper's plotting order.
func AllClasses() []VMClass { return []VMClass{M1Large, M1XLarge, C1Medium, C1XLarge} }

// PlanningClasses lists the three classes used in the planning evaluation
// (Sec. V-A: I = {c1.medium, m1.large, m1.xlarge}).
func PlanningClasses() []VMClass { return []VMClass{C1Medium, M1Large, M1XLarge} }

// Pricing is the cost book of the cloud market, in the units used by the
// planning models: dollars per instance-hour, per GB-hour, or per GB.
type Pricing struct {
	// OnDemand is the fixed hourly instance rental rate λ_i per class.
	OnDemand map[VMClass]float64
	// StoragePerGBHour is the cloud storage rental cost per GB-hour.
	StoragePerGBHour float64
	// IOPerGBHour is the normalised data I/O cost applied per stored
	// GB-hour (the paper normalises the Montage 3-year I/O bill to
	// $0.2/GB; in the objective it multiplies the inventory β).
	IOPerGBHour float64
	// TransferInPerGB and TransferOutPerGB are network costs per GB.
	TransferInPerGB  float64
	TransferOutPerGB float64
}

// AmazonPricing returns the Sec. V-A parameter set: on-demand rates
// {$0.2, $0.4, $0.8} for {c1.medium, m1.large, m1.xlarge}, EBS storage at
// $0.1 per GB-month, I/O normalised to $0.2 per GB, transfer in/out at
// $0.1/$0.17 per GB. c1.xlarge (price study only) is extrapolated on the
// same ladder.
func AmazonPricing() Pricing {
	return Pricing{
		OnDemand: map[VMClass]float64{
			C1Medium: 0.2,
			M1Large:  0.4,
			M1XLarge: 0.8,
			C1XLarge: 1.3,
		},
		StoragePerGBHour: 0.1 / 730.0, // $0.1 per GB-month
		IOPerGBHour:      0.2,
		TransferInPerGB:  0.1,
		TransferOutPerGB: 0.17,
	}
}

// HoldingPerGBHour returns the combined inventory coefficient Cs+Cio that
// multiplies β in the planning objectives.
func (p Pricing) HoldingPerGBHour() float64 { return p.StoragePerGBHour + p.IOPerGBHour }

// SpotTrace is an irregular spot-price update feed for one VM class.
type SpotTrace struct {
	Class  VMClass
	Events timeseries.EventSeries
	// Days is the covered horizon in days from hour 0.
	Days int
}

// Hourly resamples the trace into an hourly price series of length n
// starting at the given hour, using the paper's resampling rule.
func (tr *SpotTrace) Hourly(start float64, n int) ([]float64, error) {
	return tr.Events.Resample(start, n)
}

// HourlyChanges resamples the trace like Hourly and additionally returns the
// ascending slot indices at which the hourly price actually moved: the
// price-trigger feed of an agent that re-plans only when the price crosses
// its bid. An agent whose bid no change crosses never needs to look at the
// trace slot by slot. perfbench's fleet trace times it as the epoch's
// market feed.
func (tr *SpotTrace) HourlyChanges(start float64, n int) ([]float64, []int, error) {
	return tr.Events.ResampleChanges(start, n)
}

// GenConfig parameterises the auction-driven spot price generator for one
// VM class.
type GenConfig struct {
	// BaseSpot is the central spot price level in dollars/hour.
	BaseSpot float64
	// OnDemandCap caps the spot price at the on-demand rate.
	OnDemandCap float64
	// ValuationSigma is the log-scale dispersion of the bidder valuation
	// distribution entering the uniform-price auction. The clearing price of
	// a uniform-price auction with lognormal LN(ln BaseSpot, σ²) valuations
	// and utilisation u is the (1−u) valuation quantile, i.e.
	// BaseSpot·exp(σ·z) with z = Φ⁻¹(u); the generator tracks z directly as
	// a standardised AR(1) demand score.
	ValuationSigma float64
	// DemandPhi is the AR(1) persistence of the standardised demand score
	// (stationary variance is kept at 1).
	DemandPhi float64
	// DiurnalAmp is the amplitude of the 24h utilisation cycle.
	DiurnalAmp float64
	// JumpProb and JumpScale inject occasional demand spikes producing the
	// box-whisker outliers of Fig. 3.
	JumpProb, JumpScale float64
	// UpdatesPerDay is the long-run mean number of price-update events per
	// day; the daily rate itself wanders (Fig. 4).
	UpdatesPerDay float64
	// Quantum is the price tick (Amazon uses $0.001).
	Quantum float64
}

// DefaultGenConfig returns the calibrated generator configuration for a
// class. Base spot levels sit near 30% of on-demand, as the paper observes
// ("auctioned off in a price much lower than the regular on-demand price"),
// and volatility grows with class power so that more powerful classes show
// more outliers (Fig. 3).
func DefaultGenConfig(class VMClass) (GenConfig, error) {
	p := AmazonPricing()
	base := map[VMClass]float64{
		C1Medium: 0.060,
		M1Large:  0.120,
		M1XLarge: 0.240,
		C1XLarge: 0.450,
	}
	vol := map[VMClass]float64{
		C1Medium: 0.040,
		M1Large:  0.034,
		M1XLarge: 0.038,
		C1XLarge: 0.044,
	}
	jump := map[VMClass]float64{
		C1Medium: 0.001,
		M1Large:  0.002,
		M1XLarge: 0.004,
		C1XLarge: 0.0035,
	}
	b, ok := base[class]
	if !ok {
		return GenConfig{}, fmt.Errorf("market: unknown VM class %q", class)
	}
	return GenConfig{
		BaseSpot:       b,
		OnDemandCap:    p.OnDemand[class],
		ValuationSigma: vol[class],
		DemandPhi:      0.35,
		DiurnalAmp:     0.15,
		JumpProb:       jump[class],
		JumpScale:      0.35,
		UpdatesPerDay:  10,
		Quantum:        0.001,
	}, nil
}

// ClampPrice clamps a clearing-price level into the generator's admissible
// band [Quantum, OnDemandCap] — the same band clearingPrice enforces on every
// auction outcome. The fleet simulator's demand-feedback loop routes its
// adjusted base spot level through it so no amount of aggregate-demand
// pressure can push the market outside the range the auction itself allows.
func (c GenConfig) ClampPrice(p float64) float64 {
	if p > c.OnDemandCap {
		p = c.OnDemandCap
	}
	if p < c.Quantum {
		p = c.Quantum
	}
	return p
}

// Generator produces spot traces for one class from a seeded auction model.
type Generator struct {
	Class VMClass
	Cfg   GenConfig
	seed  int64
}

// NewGenerator builds a generator with calibrated defaults for the class.
func NewGenerator(class VMClass, seed int64) (*Generator, error) {
	cfg, err := DefaultGenConfig(class)
	if err != nil {
		return nil, err
	}
	return &Generator{Class: class, Cfg: cfg, seed: seed}, nil
}

// clearingPrice computes the uniform-price auction outcome in closed form:
// with lognormal bidder valuations LN(ln BaseSpot, σ²) and a standardised
// demand score z (so that utilisation is u = Φ(z)), the lowest winning bid
// is the u-quantile of the valuation distribution, BaseSpot·exp(σz), shifted
// by transient demand spikes.
func (g *Generator) clearingPrice(z, shift float64) float64 {
	price := g.Cfg.BaseSpot * math.Exp(g.Cfg.ValuationSigma*z+shift)
	if price > g.Cfg.OnDemandCap {
		price = g.Cfg.OnDemandCap
	}
	if price < g.Cfg.Quantum {
		price = g.Cfg.Quantum
	}
	return math.Round(price/g.Cfg.Quantum) * g.Cfg.Quantum
}

// Trace simulates the given number of days of spot-price updates.
func (g *Generator) Trace(days int) *SpotTrace {
	rng := stats.NewRNG(g.seed)
	tr := &SpotTrace{Class: g.Class, Days: days}
	z := 0.0
	innov := math.Sqrt(1 - g.Cfg.DemandPhi*g.Cfg.DemandPhi)
	shift := 0.0
	// Daily update-rate random walk in log space, mean-reverting, so some
	// days see ~0 updates and others 25+ (Fig. 4).
	logRate := math.Log(g.Cfg.UpdatesPerDay)
	meanLogRate := logRate
	lastPrice := -1.0
	for d := 0; d < days; d++ {
		logRate += 0.3*(meanLogRate-logRate) + 0.4*rng.NormFloat64()
		nUpdates := poisson(rng, math.Exp(logRate))
		times := make([]float64, nUpdates)
		for i := range times {
			times[i] = float64(d)*24 + rng.Float64()*24
		}
		sortFloat64s(times)
		for _, h := range times {
			// Advance the standardised demand score to this event.
			z = g.Cfg.DemandPhi*z + innov*rng.NormFloat64()
			diurnal := g.Cfg.DiurnalAmp * math.Sin(2*math.Pi*(h-8)/24)
			// Occasional demand spikes decay multiplicatively via shift.
			shift *= 0.8
			if rng.Float64() < g.Cfg.JumpProb {
				shift += g.Cfg.JumpScale * (0.5 + rng.Float64())
			}
			price := g.clearingPrice(z+diurnal, shift)
			if price == lastPrice { //lint:ignore rentlint/floatcmp repeat detection: an unchanged clearing price is recomputed bit-identically
				continue // Amazon only publishes actual changes
			}
			lastPrice = price
			tr.Events.Events = append(tr.Events.Events, timeseries.Event{Hour: h, Value: price})
		}
	}
	if len(tr.Events.Events) == 0 {
		// Degenerate configuration: emit the base price once.
		tr.Events.Events = append(tr.Events.Events, timeseries.Event{Hour: 0, Value: g.Cfg.BaseSpot})
	}
	return tr
}

func poisson(rng interface{ Float64() float64 }, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		lambda = 500
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

func sortFloat64s(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ReferenceSeed is the fixed seed of the repository's reference traces,
// standing in for the paper's 2010-02-01 .. 2011-06-22 collection window.
const ReferenceSeed = 20100201

// ReferenceDays matches the paper's 507-day collection window.
const ReferenceDays = 507

// ReferenceTraces generates the deterministic reference trace set used by
// the experiments: one 507-day trace per class, all from ReferenceSeed.
func ReferenceTraces() (map[VMClass]*SpotTrace, error) {
	out := make(map[VMClass]*SpotTrace, 4)
	for i, class := range AllClasses() {
		g, err := NewGenerator(class, ReferenceSeed+int64(i))
		if err != nil {
			return nil, err
		}
		out[class] = g.Trace(ReferenceDays)
	}
	return out, nil
}
