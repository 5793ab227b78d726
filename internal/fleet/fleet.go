// Package fleet simulates heterogeneous populations of ASPs planning
// against one shared spot market. Where the single-agent executors in
// internal/core walk a price trace slot by slot, the fleet's lite engine
// never walks slots at all. An ASP is served from spot exactly when its bid
// is at least the price, so within one epoch its spot slots, its compute
// cost and the slots at which a price change crosses its bid (flipping the
// in-bid/out-of-bid regime its committed plan assumed, and so waking it to
// re-plan) depend only on which of the epoch's realised price levels lie at
// or below its bid. Each epoch a shard tabulates, for every interval
// between consecutive levels, the in-bid slot count, the in-bid price sum
// and the lengths of the segments between crossings; every ASP then settles
// its whole epoch in O(1) from its interval's entry, its wakes included
// (one at each segment start and one at each plan-horizon expiry inside a
// segment).
//
// Populations are partitioned into contiguous shards that communicate with
// the market loop through copy-in mailboxes — each epoch a shard receives
// its own copy of the resampled prices and answers with integer
// aggregates. A shard reads its own range of Config.Population and
// accumulates each ASP's outcome straight into its own range of
// Result.PerASP, in index order; no other state is shared between shards,
// every per-ASP accumulator depends only on that ASP's attributes and the
// epoch's prices, and the final reduction runs serially in ASP index
// order, so a run with Shards: N is bit-identical to the serial run (the
// mip/benders workers convention).
//
// The market loop closes the demand/price feedback the single-agent model
// cannot express: each epoch the shards' aggregate spot demand (an integer,
// so the trajectory is exact under any shard count) shifts the generator's
// clearing-price level for the next epoch, which is how the fleet finds the
// market equilibrium the provider-side literature studies.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"rentplan/internal/demand"
	"rentplan/internal/market"
	"rentplan/internal/stats"
)

// ASP is one application service provider in the population: its standing
// spot bid, its demand curve, and how elastically that demand responds to
// the market price level.
type ASP struct {
	// Bid is the standing spot bid in dollars/hour; the ASP is in-bid at
	// slot t iff Bid >= price(t).
	Bid float64
	// BaseDemand is the mean data demand in GB/hour at the reference price.
	BaseDemand float64
	// DiurnalAmp is the day/night demand swing amplitude, in [0, 1).
	DiurnalAmp float64
	// Elasticity is the price elasticity of demand volume: each epoch the
	// demand multiplier is (P0/meanPrice)^Elasticity.
	Elasticity float64
	// PlanHorizon is the committed plan's lifetime in slots; the ASP
	// re-plans at the latest every PlanHorizon slots.
	PlanHorizon int
}

// PlannerKind selects the per-ASP planning model.
type PlannerKind int

const (
	// PlannerLite is the closed-form fleet planner: rent spot capacity
	// while in-bid, fall back to on-demand while out-of-bid, re-plan at
	// every regime crossing and plan expiry. Each ASP's epoch settles in
	// O(1) from per-price-level tables, so it is the only planner that
	// reaches million-ASP populations.
	PlannerLite PlannerKind = iota
	// PlannerSRRP runs the full scenario-tree SRRP executor
	// (core.RunStochasticEventsCtx) for every ASP. Orders of magnitude
	// more expensive; intended for small populations.
	PlannerSRRP
)

// Config parameterises a fleet run.
type Config struct {
	// Class is the VM class whose market all ASPs share.
	Class market.VMClass
	// Population is the ASP fleet; see SamplePopulation.
	Population []ASP
	// Shards is the worker count the population is partitioned across.
	// Results are bit-identical for any value >= 1.
	Shards int
	// Epochs is the number of market epochs to simulate.
	Epochs int
	// EpochHours is the slot count per epoch.
	EpochHours int
	// Feedback is the demand/price feedback gain; 0 disables the loop and
	// every epoch prices from the generator's calibrated base level.
	Feedback float64
	// Capacity is the provider's spot capacity in instance-slots per epoch
	// entering the feedback law; <= 0 selects len(Population)*EpochHours/2,
	// +Inf sets no limit, and NaN is rejected.
	Capacity float64
	// Seed drives population-independent market randomness; epoch e uses
	// a deterministic offset of it.
	Seed int64
	// Planner selects the per-ASP planning model (default PlannerLite).
	Planner PlannerKind
	// TreeStages and MaxBranch shape the SRRP scenario tree when Planner
	// is PlannerSRRP; <= 0 selects 3 for both.
	TreeStages, MaxBranch int
	// Telemetry, when non-nil, receives aggregate and per-shard counters.
	// It is updated only from the market loop, never from shard workers.
	Telemetry *Telemetry
	// OnEpoch, when non-nil, observes each epoch's report as it completes
	// (benchmarks time epochs here; fleet itself never reads a clock).
	OnEpoch func(EpochReport)
}

// EpochReport is the market loop's per-epoch aggregate.
type EpochReport struct {
	Epoch int
	// BaseSpot is the generator base price level this epoch priced from.
	BaseSpot float64
	// MeanPrice is the realised mean hourly spot price of the epoch.
	MeanPrice float64
	// SpotSlots is the fleet's aggregate spot demand in instance-slots —
	// the integer the feedback law consumes.
	SpotSlots int64
	// Wakes and Solves count ASP wake-ups and plan solves this epoch.
	Wakes, Solves int64
}

// ASPOutcome accumulates one ASP's realised results over the whole run.
type ASPOutcome struct {
	Cost     float64
	DemandGB float64
	// SpotSlots and OnDemandSlots count rented instance-slots by market.
	SpotSlots, OnDemandSlots int64
	// Wakes counts re-planning wake-ups (slot 0 of each epoch, regime
	// crossings and plan expiries); Solves counts plan solves.
	Wakes, Solves int64
}

// Result is a completed fleet run.
type Result struct {
	TotalCost float64
	DemandGB  float64
	PerASP    []ASPOutcome
	Epochs    []EpochReport
	// FinalBaseSpot is the generator base level after the last feedback
	// update — the equilibrium price when the loop has settled.
	FinalBaseSpot float64
	// SlotsSimulated is len(Population)*Epochs*EpochHours, the denominator
	// of the ASP-slots/sec throughput metric.
	SlotsSimulated int64
	Wakes, Solves  int64
}

// SamplePopulation draws a heterogeneous ASP population for a class:
// lognormal bids centred just above the calibrated base spot level (so
// realistic traces do cross them), truncated-normal base demand, uniform
// diurnal amplitude and elasticity, and plan horizons of 1-4 days.
func SamplePopulation(n int, class market.VMClass, seed int64) ([]ASP, error) {
	if n < 0 {
		return nil, fmt.Errorf("fleet: population size %d must be >= 0", n)
	}
	gc, err := market.DefaultGenConfig(class)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	pop := make([]ASP, n)
	for i := range pop {
		pop[i] = ASP{
			Bid:         gc.ClampPrice(gc.BaseSpot * math.Exp(0.15+0.35*rng.NormFloat64())),
			BaseDemand:  stats.PositiveNormal(rng, 0.4, 0.2),
			DiurnalAmp:  0.6 * rng.Float64(),
			Elasticity:  0.2 + 1.3*rng.Float64(),
			PlanHorizon: 24 + rng.Intn(73),
		}
	}
	return pop, nil
}

// validate checks the config and then every ASP, and returns the first
// failure; RunCtx and RunPolling both run it before anything else. Each
// ASP case is one fused comparison, false for NaN and, through
// x <= MaxFloat64, for +Inf, so a valid ASP costs a few compares and only
// an invalid one builds a message.
func (cfg *Config) validate() error {
	if len(cfg.Population) == 0 {
		return errors.New("fleet: empty population")
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("fleet: shards %d must be >= 1", cfg.Shards)
	}
	if cfg.Epochs < 1 {
		return fmt.Errorf("fleet: epochs %d must be >= 1", cfg.Epochs)
	}
	if cfg.EpochHours < 1 {
		return fmt.Errorf("fleet: epoch hours %d must be >= 1", cfg.EpochHours)
	}
	// Result.SlotsSimulated = n·Epochs·EpochHours must fit int64.
	n, epochs, hours := int64(len(cfg.Population)), int64(cfg.Epochs), int64(cfg.EpochHours)
	if epochs > math.MaxInt64/n || n*epochs > math.MaxInt64/hours {
		return fmt.Errorf("fleet: %d ASPs × %d epochs × %d epoch hours overflows the int64 slot count", n, epochs, hours)
	}
	if cfg.Feedback < 0 || !isFinite(cfg.Feedback) {
		return fmt.Errorf("fleet: feedback gain %v must be a finite non-negative number", cfg.Feedback)
	}
	// NaN would price every epoch after the first from a NaN base.
	if math.IsNaN(cfg.Capacity) {
		return errors.New("fleet: capacity NaN; want +Inf for no limit or <= 0 for the default")
	}
	for i := range cfg.Population {
		switch a := &cfg.Population[i]; {
		case !(a.Bid > 0 && a.Bid <= math.MaxFloat64):
			return fmt.Errorf("fleet: ASP %d bid %v not a finite positive number", i, a.Bid)
		case !(a.BaseDemand >= 0 && a.BaseDemand <= math.MaxFloat64):
			return fmt.Errorf("fleet: ASP %d base demand %v not a finite non-negative number", i, a.BaseDemand)
		case !(a.DiurnalAmp >= 0 && a.DiurnalAmp < 1):
			return fmt.Errorf("fleet: ASP %d diurnal amplitude %v outside [0,1)", i, a.DiurnalAmp)
		case !(a.Elasticity >= 0 && a.Elasticity <= math.MaxFloat64):
			return fmt.Errorf("fleet: ASP %d elasticity %v not a finite non-negative number", i, a.Elasticity)
		case a.PlanHorizon < 1:
			return fmt.Errorf("fleet: ASP %d plan horizon %d must be >= 1", i, a.PlanHorizon)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// epochSeedStride separates per-epoch generator seeds; any odd constant
// larger than plausible epoch counts works, this one is a prime.
const epochSeedStride = 1000003

// Run simulates the fleet to completion. See RunCtx.
func Run(cfg *Config) (*Result, error) { return RunCtx(context.Background(), cfg) }

// RunCtx simulates the fleet under a caller context. Each shard runs on one
// worker goroutine, which simulates the epochs the market loop sends it by
// one pass over its contiguous range of Config.Population, accumulating
// into the same range of Result.PerASP. The population is read throughout
// the run, so it must not change until RunCtx returns.
//
// Cancellation aborts mid-epoch: every shard worker exits, no goroutine
// leaks, and ctx's error is returned. An ASP that cannot be planned — the
// SRRP planner fails, or the lite planner's instance count is not finite or
// does not fit int64 slot tallies — fails the run with an error naming the
// epoch and the lowest such ASP index. For any fixed Config (including
// Seed), the result is bit-identical across shard counts and across
// repeated runs.
func RunCtx(ctx context.Context, cfg *Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gc, err := market.DefaultGenConfig(cfg.Class)
	if err != nil {
		return nil, err
	}
	pricing := market.AmazonPricing()
	lambda, ok := pricing.OnDemand[cfg.Class]
	if !ok {
		return nil, fmt.Errorf("fleet: no on-demand price for class %q", cfg.Class)
	}
	n := len(cfg.Population)
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = float64(n) * float64(cfg.EpochHours) / 2
	}
	shared := sharedParams{
		class:      cfg.Class,
		planner:    cfg.Planner,
		treeStages: cfg.TreeStages,
		maxBranch:  cfg.MaxBranch,
		p0:         gc.BaseSpot,
		lambda:     lambda,
		svcPerGB:   pricing.TransferInPerGB + pricing.TransferOutPerGB,
	}
	if shared.treeStages <= 0 {
		shared.treeStages = 3
	}
	if shared.maxBranch <= 0 {
		shared.maxBranch = 3
	}
	H := cfg.EpochHours
	for t := 0; t < H; t++ {
		shared.sinTotal += demand.Sin24(t)
	}

	res := &Result{
		PerASP:         make([]ASPOutcome, n),
		SlotsSimulated: int64(n) * int64(cfg.Epochs) * int64(cfg.EpochHours),
	}
	shared.maxInst = float64(math.MaxInt64 / res.SlotsSimulated)

	workers := make([]*shardWorker, cfg.Shards)
	var wg sync.WaitGroup
	for s := range workers {
		lo, hi := s*n/cfg.Shards, (s+1)*n/cfg.Shards
		workers[s] = &shardWorker{
			lo:     lo,
			shared: shared,
			pop:    cfg.Population[lo:hi],
			out:    res.PerASP[lo:hi],
			work:   make(chan epochWork),
			ack:    make(chan epochAck, 1),
		}
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			w.run(ctx)
		}(workers[s])
	}
	shutdown := func() {
		for _, w := range workers {
			close(w.work)
		}
		wg.Wait()
	}

	base := gc.BaseSpot
	reports := make([]EpochReport, 0, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		if ctx.Err() != nil {
			shutdown()
			return nil, ctx.Err()
		}
		g, err := market.NewGenerator(cfg.Class, cfg.Seed+int64(e)*epochSeedStride)
		if err != nil {
			shutdown()
			return nil, err
		}
		g.Cfg.BaseSpot = base
		prices, err := g.Trace((H+23)/24).Hourly(0, H)
		if err != nil {
			shutdown()
			return nil, err
		}
		meanPrice := 0.0
		for _, p := range prices {
			meanPrice += p
		}
		meanPrice /= float64(H)

		// Copy-in mailboxes: every shard owns a private copy of the epoch's
		// prices, so workers never alias market-loop memory.
		for _, w := range workers {
			job := epochWork{
				epoch:     e,
				prices:    append([]float64(nil), prices...),
				meanPrice: meanPrice,
			}
			select {
			case w.work <- job:
			case <-ctx.Done():
				shutdown()
				return nil, ctx.Err()
			}
		}
		rep := EpochReport{Epoch: e, BaseSpot: base, MeanPrice: meanPrice}
		var failure error
		for s, w := range workers {
			var a epochAck
			select {
			case a = <-w.ack:
			case <-ctx.Done():
				shutdown()
				return nil, ctx.Err()
			}
			if failure == nil {
				failure = a.err
			}
			rep.SpotSlots += a.spotSlots
			rep.Wakes += a.wakes
			rep.Solves += a.solves
			if cfg.Telemetry != nil {
				cfg.Telemetry.ShardWakes.With(strconv.Itoa(s)).Add(float64(a.wakes))
				cfg.Telemetry.ShardSolves.With(strconv.Itoa(s)).Add(float64(a.solves))
			}
		}
		if ctx.Err() != nil {
			// A worker may have answered a truncated ack after observing the
			// cancellation; discard the epoch rather than report shortfall.
			shutdown()
			return nil, ctx.Err()
		}
		if failure != nil {
			shutdown()
			return nil, failure
		}
		base = nextBase(gc, base, cfg.Feedback, rep.SpotSlots, capacity)
		reports = append(reports, rep)
		if cfg.Telemetry != nil {
			cfg.Telemetry.observeEpoch(rep, base)
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(rep)
		}
	}
	shutdown()
	if ctx.Err() != nil {
		// Cancelled after the last epoch: still a cancelled run, whatever
		// the workers finished.
		return nil, ctx.Err()
	}
	res.Epochs, res.FinalBaseSpot = reports, base
	// Serial reduction in ASP index order: the float totals are identical
	// for every shard count because the summation order never changes.
	for i := range res.PerASP {
		o := &res.PerASP[i]
		res.TotalCost += o.Cost
		res.DemandGB += o.DemandGB
		res.Wakes += o.Wakes
		res.Solves += o.Solves
	}
	return res, nil
}

// nextBase applies the demand/price feedback law: excess aggregate spot
// demand over capacity raises the clearing-price level exponentially (and
// slack lowers it), with the log-step clamped to ±0.5 and the level kept
// inside the generator's admissible band. SpotSlots is an integer, so the
// base trajectory is exact — independent of shard count and of which
// engine (event or polling) produced the demand.
func nextBase(gc market.GenConfig, base, gain float64, spotSlots int64, capacity float64) float64 {
	if gain <= 0 {
		return base
	}
	shift := gain * (float64(spotSlots)/capacity - 1)
	if shift > 0.5 {
		shift = 0.5
	}
	if shift < -0.5 {
		shift = -0.5
	}
	return gc.ClampPrice(base * math.Exp(shift))
}
