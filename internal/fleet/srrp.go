package fleet

import (
	"context"
	"math"

	"rentplan/internal/core"
	"rentplan/internal/demand"
	"rentplan/internal/stats"
)

// runEpochSRRP simulates one epoch with the full scenario-tree planner:
// every ASP, in index order, executes core.RunStochasticEventsCtx — the
// event-driven SRRP executor — against the epoch's price series, with the
// epoch's own price histogram as the tree base distribution. The per-ASP
// runs are independent and each ASP's arithmetic depends only on its own
// attributes, so outcomes are identical under any shard count, exactly as
// in the lite engine. The pass stops at the first ASP the planner fails.
func (w *shardWorker) runEpochSRRP(ctx context.Context, job epochWork) epochAck {
	var a epochAck
	H := len(job.prices)
	par := core.DefaultParams(w.shared.class)
	baseDist := stats.NewDiscreteFromSamples(job.prices, 1e-3)
	logRatio := math.Log(w.shared.p0 / job.meanPrice)
	bids := make([]float64, H)
	for i := range w.pop {
		if ctx.Err() != nil {
			return a
		}
		asp := &w.pop[i]
		mult := epochMult(asp.Elasticity, logRatio)
		proc := demand.Diurnal{Base: mult * asp.BaseDemand, Amp: asp.DiurnalAmp}
		dem := demand.Series(proc, H)
		for t := range bids {
			bids[t] = asp.Bid
		}
		cfg := &core.ExecConfig{
			Par:        par,
			Actual:     job.prices,
			Demand:     dem,
			Base:       baseDist,
			TreeStages: w.shared.treeStages,
			MaxBranch:  w.shared.maxBranch,
		}
		out, err := core.RunStochasticEventsCtx(ctx, cfg, bids)
		if err != nil {
			// A cancelled run returns ctx's error whatever the ack holds.
			a.err = aspError(job.epoch, w.lo+i, err)
			return a
		}
		gb := 0.0
		for _, d := range dem {
			gb += d
		}
		o := &w.out[i]
		o.Cost += out.Cost + gb*w.shared.svcPerGB
		o.DemandGB += gb
		spot := int64(out.RentSlots - out.OutOfBidSlots)
		o.SpotSlots += spot
		o.OnDemandSlots += int64(out.OutOfBidSlots)
		o.Wakes += int64(out.Replans)
		o.Solves += int64(out.Replans)
		a.spotSlots += spot
		a.wakes += int64(out.Replans)
		a.solves += int64(out.Replans)
	}
	return a
}
