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
}

// epochWork is one epoch's copy-in mailbox message. Every slice is owned by
// the receiving shard — the market loop copies before sending and never
// touches the copies again.
type epochWork struct {
	epoch     int
	prices    []float64
	changes   []int
	priceSum  []float64 // prefix sums: priceSum[t] = Σ prices[0:t]
	sinSum    []float64 // prefix sums of demand.Sin24
	meanPrice float64
}

// epochAck is a shard's answer for one epoch: integer aggregates, so the
// market loop's feedback input sums exactly under any shard count, and the
// shard's planning failure if it had one.
type epochAck struct {
	spotSlots, wakes, solves int64
	// err is the epoch's failure of lowest ASP index in the shard and
	// failASP that index; err is nil when every ASP was planned.
	err     error
	failASP int
}

// fail records ASP i's planning failure unless the ack already holds one
// of lower index. Shards are contiguous index ranges and the market loop
// reports the first failing shard's ack, so the run's error names the
// lowest failing ASP of the first failing epoch under any shard count.
func (a *epochAck) fail(epoch, i int, cause error) {
	if a.err == nil || i < a.failASP {
		a.err, a.failASP = aspError(epoch, i, cause), i
	}
}

// aspError reports that a run could not plan ASP i in the given epoch.
func aspError(epoch, i int, cause error) error {
	return fmt.Errorf("fleet: epoch %d ASP %d: %w", epoch, i, cause)
}

// aspState packs one ASP's static attributes, per-epoch plan state, and
// running accumulators into a single struct so a wake touches two cache
// lines instead of a dozen scattered arrays. Shard state is kept in
// ascending-bid order: the ASPs flipped by a price change old→new are then
// the contiguous run with bid in [min, max), found by two binary searches
// and swept sequentially.
type aspState struct {
	bid, baseDemand, amp, elast float64
	// mult and inst are this epoch's elastic demand multiplier and the
	// integer instance count it implies.
	mult float64
	inst int64
	// segStart opens the current constant-regime segment; nextExpiry is
	// the slot the committed plan dies at (stale bucket entries are
	// skipped when they disagree).
	horizon, segStart, nextExpiry int32
	inBid                         bool
	// Running accumulators, folded into ASPOutcome at handover.
	cost, gb                 float64
	spot, ondem, wake, solve int64
}

// shardWorker owns a contiguous ASP range [lo, lo+len(pop)). It builds its
// state on its own goroutine (see build), and its only writes outside that
// state are its epoch acks and, at handover, its own range out of
// Result.PerASP; the market loop communicates through the work/ack
// channels alone.
type shardWorker struct {
	lo     int
	shared sharedParams
	pop    []ASP        // the shard's population, read by build alone
	out    []ASPOutcome // Result.PerASP[lo : lo+len(pop)]

	// st holds per-ASP state in ascending-bid order; sortedBids mirrors
	// the bid of st[k] for binary search; perm maps sorted position back
	// to the ASP's local index for the final handover.
	st         []aspState
	sortedBids []float64
	perm       []int32

	buckets [][]int32 // per-slot expiry buckets over sorted positions

	work chan epochWork
	ack  chan epochAck
}

// build lays the shard's state out in ascending-bid order. It runs first
// thing on the worker's goroutine, so the shards build concurrently and
// the market loop prices epoch 0 meanwhile.
func (w *shardWorker) build() {
	w.perm = bidOrder(w.pop)
	w.st = make([]aspState, len(w.pop))
	w.sortedBids = make([]float64, len(w.pop))
	for k, li := range w.perm {
		// Field stores into the zeroed array: a composite literal would be
		// built in a temporary and block-copied, a fifth of the build time.
		a, s := &w.pop[li], &w.st[k]
		s.bid, s.baseDemand, s.amp, s.elast = a.Bid, a.BaseDemand, a.DiurnalAmp, a.Elasticity
		s.horizon = int32(a.PlanHorizon)
		w.sortedBids[k] = a.Bid
	}
}

// radixBits is bidOrder's digit width: six passes cover a 64-bit key, and
// 2048 buckets per pass keep the scatter's write positions in cache.
const radixBits = 11

// bidOrder is the permutation that sorts pop by ascending bid, ties in
// index order: a stable LSD radix sort over the bids' IEEE-754 bit
// patterns, which order as the values do for the finite positive bids
// validate admits. Keys travel with their indices, so no pass reads the
// population, and a digit that every key shares costs no pass.
func bidOrder(pop []ASP) []int32 {
	const buckets, passes = 1 << radixBits, (64 + radixBits - 1) / radixBits
	n := len(pop)
	keys, perm := make([]uint64, n), make([]int32, n)
	var count [passes][buckets]int
	for i := range pop {
		k := math.Float64bits(pop[i].Bid)
		keys[i], perm[i] = k, int32(i)
		for d := range count {
			count[d][(k>>(radixBits*d))&(buckets-1)]++
		}
	}
	if n < 2 {
		return perm
	}
	keys2, perm2 := make([]uint64, n), make([]int32, n)
	for d := range count {
		c, shift := &count[d], radixBits*d
		if c[(keys[0]>>shift)&(buckets-1)] == n {
			continue
		}
		for b, sum := 0, 0; b < buckets; b++ {
			c[b], sum = sum, sum+c[b]
		}
		for i, k := range keys {
			j := &c[(k>>shift)&(buckets-1)]
			keys2[*j], perm2[*j] = k, perm[i]
			*j++
		}
		keys, keys2, perm, perm2 = keys2, keys, perm2, perm
	}
	return perm
}

// epochMult is the elastic demand multiplier (p0/meanPrice)^elasticity,
// computed as exp(elast·ln(p0/meanPrice)) so the per-epoch log is shared
// across the population. Both engines (event and polling) call exactly this
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

// handover folds the accumulators into ASPOutcome, in original index
// order, straight into the shard's own range of Result.PerASP. The
// market loop reads that range only after the worker's WaitGroup.Done.
func (w *shardWorker) handover() {
	for k := range w.st {
		s := &w.st[k]
		w.out[w.perm[k]] = ASPOutcome{
			Cost:          s.cost,
			DemandGB:      s.gb,
			SpotSlots:     s.spot,
			OnDemandSlots: s.ondem,
			Wakes:         s.wake,
			Solves:        s.solve,
		}
	}
}

// run is the worker loop: build the shard's state, then one epoch per
// mailbox message, ack after each, handover when the work channel closes.
// Every blocking operation selects on ctx so cancellation can never strand
// a worker.
func (w *shardWorker) run(ctx context.Context) {
	w.build()
	for {
		select {
		case <-ctx.Done():
			return
		case job, ok := <-w.work:
			if !ok {
				w.handover()
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
