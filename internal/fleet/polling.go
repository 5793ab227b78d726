package fleet

import (
	"context"
	"math"

	"rentplan/internal/demand"
	"rentplan/internal/market"
)

// RunPolling simulates the fleet with the naive per-ASP slot-polling walk
// the event engine replaces: every ASP visits every slot of every epoch,
// evaluating its demand process through the demand.Process interface and
// re-checking its regime, exactly as the per-agent rolling executors do.
// It exists as the benchmark baseline and as the independent oracle the
// agreement tests compare the event engine against: wake slots, solve
// counts and integer slot aggregates match the event engine exactly, and
// float costs agree to rounding (the two engines sum in different orders).
// An ASP whose instance count the event engine rejects fails the walk with
// the same error.
func RunPolling(cfg *Config) (*Result, error) {
	return RunPollingCtx(context.Background(), cfg)
}

// RunPollingCtx is RunPolling under a caller context. The walk is serial;
// Config.Shards is ignored.
func RunPollingCtx(ctx context.Context, cfg *Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gc, err := market.DefaultGenConfig(cfg.Class)
	if err != nil {
		return nil, err
	}
	pricing := market.AmazonPricing()
	lambda := pricing.OnDemand[cfg.Class]
	svcPerGB := pricing.TransferInPerGB + pricing.TransferOutPerGB
	n := len(cfg.Population)
	H := cfg.EpochHours
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = float64(n) * float64(cfg.EpochHours) / 2
	}
	res := &Result{
		PerASP:         make([]ASPOutcome, n),
		SlotsSimulated: int64(n) * int64(cfg.Epochs) * int64(cfg.EpochHours),
	}
	maxInst := float64(math.MaxInt64 / res.SlotsSimulated)
	base := gc.BaseSpot
	for e := 0; e < cfg.Epochs; e++ {
		g, err := market.NewGenerator(cfg.Class, cfg.Seed+int64(e)*epochSeedStride)
		if err != nil {
			return nil, err
		}
		g.Cfg.BaseSpot = base
		prices, err := g.Trace((H+23)/24).Hourly(0, H)
		if err != nil {
			return nil, err
		}
		meanPrice := 0.0
		for _, p := range prices {
			meanPrice += p
		}
		meanPrice /= float64(H)
		rep := EpochReport{Epoch: e, BaseSpot: base, MeanPrice: meanPrice}
		logRatio := math.Log(gc.BaseSpot / meanPrice)
		for i := range cfg.Population {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			asp := &cfg.Population[i]
			o := &res.PerASP[i]
			mult := epochMult(asp.Elasticity, logRatio)
			inst, ok := epochInstances(mult, asp.BaseDemand, maxInst)
			if !ok {
				return nil, aspError(e, i, instancesError(mult, asp.BaseDemand))
			}
			var proc demand.Process = demand.Diurnal{Base: mult * asp.BaseDemand, Amp: asp.DiurnalAmp}
			gb := 0.0
			inBid := false
			expiresIn := 0
			for t := 0; t < H; t++ {
				crossed := t > 0 && (asp.Bid >= prices[t]) != (asp.Bid >= prices[t-1])
				woke := false
				if t == 0 || crossed {
					woke = true
				} else {
					expiresIn--
					if expiresIn == 0 {
						woke = true
					}
				}
				if woke {
					inBid = asp.Bid >= prices[t]
					expiresIn = asp.PlanHorizon
					o.Wakes++
					o.Solves++
					rep.Wakes++
					rep.Solves++
				}
				gb += proc.At(t)
				if inBid {
					o.Cost += float64(inst) * prices[t]
					o.SpotSlots += inst
					rep.SpotSlots += inst
				} else {
					o.Cost += float64(inst) * lambda
					o.OnDemandSlots += inst
				}
			}
			o.DemandGB += gb
			o.Cost += gb * svcPerGB
		}
		base = nextBase(gc, base, cfg.Feedback, rep.SpotSlots, capacity)
		res.Epochs = append(res.Epochs, rep)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(rep)
		}
	}
	res.FinalBaseSpot = base
	for i := range res.PerASP {
		o := &res.PerASP[i]
		res.TotalCost += o.Cost
		res.DemandGB += o.DemandGB
		res.Wakes += o.Wakes
		res.Solves += o.Solves
	}
	return res, nil
}
