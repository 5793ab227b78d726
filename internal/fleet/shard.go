package fleet

import (
	"context"
	"fmt"
	"math"

	"rentplan/internal/market"
)

// sharedParams are the run-wide constants every shard works from. Values
// only; nothing here is mutated after construction.
type sharedParams struct {
	class      market.VMClass
	planner    PlannerKind
	treeStages int
	maxBranch  int
	// p0 is the calibrated reference price entering the elasticity rule.
	p0       float64
	lambda   float64
	svcPerGB float64
	// maxInst is math.MaxInt64 / Result.SlotsSimulated: no ASP may rent more
	// instances in a slot, so every slot tally (per ASP, per epoch or for
	// the whole run) fits int64.
	maxInst float64
	// sinTotal is Σ demand.Sin24(t) over an epoch's slots, so an epoch's
	// diurnal demand integrates to mult·baseDemand·(EpochHours +
	// amp·sinTotal), the sum of the per-slot Diurnal.At values.
	sinTotal float64
}

// epochWork is one epoch's copy-in mailbox message. The price slice is
// owned by the receiving shard — the market loop copies it before sending
// and never touches the copy again.
type epochWork struct {
	epoch     int
	prices    []float64
	meanPrice float64
}

// epochAck is a shard's answer for one epoch: integer aggregates, so the
// market loop's feedback input sums exactly under any shard count, and the
// epoch's failure of lowest ASP index in the shard, if any (the shard stops
// at it).
type epochAck struct {
	spotSlots, wakes, solves int64
	err                      error
}

// aspError reports that a run could not plan ASP i in the given epoch.
func aspError(epoch, i int, cause error) error {
	return fmt.Errorf("fleet: epoch %d ASP %d: %w", epoch, i, cause)
}

// shardWorker owns a contiguous ASP range [lo, lo+len(pop)). It reads its
// range of Config.Population and accumulates each ASP's outcome straight
// into the same range of Result.PerASP; its only other writes are its
// epoch acks and its own scratch, and the market loop communicates through
// the work/ack channels alone.
type shardWorker struct {
	lo     int
	shared sharedParams
	pop    []ASP        // Config.Population[lo : lo+len(pop)]
	out    []ASPOutcome // Result.PerASP[lo : lo+len(pop)]
	levels levelTables  // the lite planner's per-epoch scratch

	work chan epochWork
	ack  chan epochAck
}

// epochMult is the elastic demand multiplier (p0/meanPrice)^elasticity,
// computed as exp(elast·ln(p0/meanPrice)) so the per-epoch log is shared
// across the population. Both engines (lite and polling) call exactly this
// function, so the integer instance counts they derive agree bit for bit.
func epochMult(elast, logPriceRatio float64) float64 {
	return math.Exp(elast * logPriceRatio)
}

// epochInstances is the integer instance count 1+⌊mult·baseDemand⌋ the
// lite planner rents for an ASP with this epoch multiplier. It is not ok
// when the count is not finite or exceeds maxInst, where Go's float-to-int
// conversion or the run's slot tallies would go wrong; both engines call
// it, so they reject the same ASPs (see instancesError).
func epochInstances(mult, baseDemand, maxInst float64) (inst int64, ok bool) {
	v := mult * baseDemand
	if !(v < maxInst) { // false for NaN too
		return 0, false
	}
	return 1 + int64(v), true
}

// instancesError is the cause reported for a count epochInstances rejects.
func instancesError(mult, baseDemand float64) error {
	return fmt.Errorf("demand multiplier %v × base demand %v gives %v instances, beyond int64 slot tallies", mult, baseDemand, mult*baseDemand)
}

// run is the worker loop: one epoch per mailbox message, an ack after
// each, until the work channel closes. Every blocking operation selects on
// ctx so cancellation can never strand a worker.
func (w *shardWorker) run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case job, ok := <-w.work:
			if !ok {
				return
			}
			var a epochAck
			if w.shared.planner == PlannerSRRP {
				a = w.runEpochSRRP(ctx, job)
			} else {
				a = w.runEpochLite(ctx, job)
			}
			select {
			case w.ack <- a:
			case <-ctx.Done():
				return
			}
		}
	}
}
