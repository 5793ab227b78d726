package fleet

import (
	"context"
	"math"

	"rentplan/internal/core"
	"rentplan/internal/demand"
	"rentplan/internal/stats"
)

// runEpochSRRP simulates one epoch with the full scenario-tree planner:
// every ASP executes core.RunStochasticEventsCtx — the event-driven SRRP
// executor — against the epoch's price series, with the epoch's own price
// histogram as the tree base distribution. The per-ASP runs are independent
// and each ASP's arithmetic depends only on its own attributes, so outcomes
// are identical under any shard count, exactly as in the lite engine.
func (w *shardWorker) runEpochSRRP(ctx context.Context, job epochWork) epochAck {
	var a epochAck
	H := len(job.prices)
	par := core.DefaultParams(w.shared.class)
	baseDist := stats.NewDiscreteFromSamples(job.prices, 1e-3)
	logRatio := math.Log(w.shared.p0 / job.meanPrice)
	bids := make([]float64, H)
	for k := range w.st {
		if ctx.Err() != nil {
			return a
		}
		s := &w.st[k]
		s.mult = epochMult(s.elast, logRatio)
		proc := demand.Diurnal{Base: s.mult * s.baseDemand, Amp: s.amp}
		dem := demand.Series(proc, H)
		for t := range bids {
			bids[t] = s.bid
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
			a.fail(job.epoch, w.lo+int(w.perm[k]), err)
			continue
		}
		gb := 0.0
		for _, d := range dem {
			gb += d
		}
		s.cost += out.Cost + gb*w.shared.svcPerGB
		s.gb += gb
		spot := int64(out.RentSlots - out.OutOfBidSlots)
		s.spot += spot
		s.ondem += int64(out.OutOfBidSlots)
		s.wake += int64(out.Replans)
		s.solve += int64(out.Replans)
		a.spotSlots += spot
		a.wakes += int64(out.Replans)
		a.solves += int64(out.Replans)
	}
	return a
}
