package fleet

import (
	"context"
	"math"
	"sort"
)

// runEpochLite simulates one epoch for every ASP in the shard with the
// event-driven closed-form planner. The walk is O(wakes), not O(ASPs ×
// slots): an ASP is touched only at its wake events — slot 0, each price
// change whose band covers its bid, and each plan expiry — and each segment
// between wakes settles in O(1) from the epoch's prefix sums.
//
// Two layout facts keep the walk cheap. Shard state lives in ascending-bid
// order, so a price change's flip band is a contiguous sweep of the state
// array, not a gather. And an ASP whose bid falls outside the epoch's
// realised price range [minP, maxP) can never cross — its event schedule is
// purely periodic — so the contiguous head (always out-of-bid) and tail
// (always in-bid) of the sorted array settle their whole epoch in O(1) each
// via settleEpoch; only the band in between enters the event walk at all.
//
// Event ordering within a slot: price changes are processed before expiry
// buckets. A crossing at slot t re-plans and pushes the expiry out to
// t+PlanHorizon, superseding any expiry previously scheduled for t; the
// stale bucket entry is skipped by the nextExpiry lazy check.
func (w *shardWorker) runEpochLite(ctx context.Context, job epochWork) epochAck {
	H := len(job.prices)
	for len(w.buckets) < H+1 {
		w.buckets = append(w.buckets, nil)
	}
	for t := 0; t <= H; t++ {
		w.buckets[t] = w.buckets[t][:0]
	}
	var a epochAck
	logRatio := math.Log(w.shared.p0 / job.meanPrice)

	minP, maxP := job.prices[0], job.prices[0]
	for _, p := range job.prices[1:] {
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	// In-bid iff bid >= price: bids below minP stay out-of-bid all epoch,
	// bids at or above maxP stay in-bid all epoch. Only [iLow, iHigh) can
	// ever flip regime.
	iLow := sort.SearchFloat64s(w.sortedBids, minP)
	iHigh := sort.SearchFloat64s(w.sortedBids, maxP)
	for k := 0; k < iLow; k++ {
		w.settleEpoch(k, false, H, &job, &a, logRatio)
	}
	for k := iHigh; k < len(w.st); k++ {
		w.settleEpoch(k, true, H, &job, &a, logRatio)
	}

	openPrice := job.prices[0]
	for k := iLow; k < iHigh; k++ {
		if w.setDemand(k, logRatio, job.epoch, &a) {
			w.wake(k, 0, w.st[k].bid >= openPrice, H, &a)
		}
	}
	if a.err != nil {
		return a // the run stops here; the walk would settle bogus counts
	}
	ci := 0
	for t := 1; t < H; t++ {
		if ctx.Err() != nil {
			return a // truncated ack; the cancelled run discards it
		}
		if ci < len(job.changes) && job.changes[ci] == t {
			ci++
			oldP, newP := job.prices[t-1], job.prices[t]
			loP, hiP := oldP, newP
			if loP > hiP {
				loP, hiP = hiP, loP
			}
			// The ASPs flipping regime at this change are exactly those with
			// bid in [min(old,new), max(old,new)) — a sub-band of the active
			// range, so the sweep never touches the settled head or tail.
			i0 := sort.SearchFloat64s(w.sortedBids, loP)
			i1 := sort.SearchFloat64s(w.sortedBids, hiP)
			for k := i0; k < i1; k++ {
				w.closeSegment(k, t, &job, &a)
				w.wake(k, t, !w.st[k].inBid, H, &a)
			}
		}
		for _, k32 := range w.buckets[t] {
			k := int(k32)
			if w.st[k].nextExpiry != int32(t) {
				continue // superseded by a later wake
			}
			w.closeSegment(k, t, &job, &a)
			w.wake(k, t, w.st[k].inBid, H, &a)
		}
	}
	for k := iLow; k < iHigh; k++ {
		w.closeSegment(k, H, &job, &a)
	}
	return a
}

// settleEpoch resolves a whole epoch in O(1) for an ASP that never crosses:
// its wakes are the purely periodic plan expiries (slot 0, then every
// PlanHorizon slots), and every segment shares one regime, so the segment
// sums telescope into the full-epoch prefix-sum differences. Wake and solve
// counts are credited exactly as the event walk would.
func (w *shardWorker) settleEpoch(k int, inBid bool, H int, job *epochWork, a *epochAck, logRatio float64) {
	if !w.setDemand(k, logRatio, job.epoch, a) {
		return
	}
	s := &w.st[k]
	wakes := int64(1 + (H-1)/int(s.horizon))
	s.wake += wakes
	s.solve += wakes
	a.wakes += wakes
	a.solves += wakes
	gb := s.mult * s.baseDemand * (float64(H) + s.amp*(job.sinSum[H]-job.sinSum[0]))
	s.gb += gb
	s.cost += gb * w.shared.svcPerGB
	slots := s.inst * int64(H)
	if inBid {
		s.cost += float64(s.inst) * (job.priceSum[H] - job.priceSum[0])
		s.spot += slots
		a.spotSlots += slots
	} else {
		s.cost += float64(s.inst) * w.shared.lambda * float64(H)
		s.ondem += slots
	}
}

// setDemand sets the ASP at sorted position k to this epoch's elastic
// demand: its multiplier and the integer instance count it implies. Both
// are pure functions of (meanPrice, ASP), so they are identical whichever
// shard the ASP lands in. A count the run cannot tally is recorded in a and
// reported false.
func (w *shardWorker) setDemand(k int, logRatio float64, epoch int, a *epochAck) bool {
	s := &w.st[k]
	s.mult = epochMult(s.elast, logRatio)
	inst, ok := epochInstances(s.mult, s.baseDemand, w.shared.maxInst)
	if !ok {
		a.fail(epoch, w.lo+int(w.perm[k]), instancesError(s.mult, s.baseDemand))
		return false
	}
	s.inst = inst
	return true
}

// wake re-plans the ASP at sorted position k at slot t into the given
// regime: a new segment starts here and the committed plan expires
// PlanHorizon slots out.
func (w *shardWorker) wake(k, t int, inBid bool, H int, a *epochAck) {
	s := &w.st[k]
	s.inBid = inBid
	s.segStart = int32(t)
	exp := int32(t) + s.horizon
	s.nextExpiry = exp
	if int(exp) < H {
		w.buckets[exp] = append(w.buckets[exp], int32(k))
	}
	s.wake++
	s.solve++
	a.wakes++
	a.solves++
}

// closeSegment settles the slots [segStart, end) for the ASP at sorted
// position k in O(1): demand integrates from the diurnal prefix sums,
// compute cost from the price prefix sums (in-bid) or the flat on-demand
// rate (out-of-bid).
func (w *shardWorker) closeSegment(k, end int, job *epochWork, a *epochAck) {
	s := &w.st[k]
	start := int(s.segStart)
	if end <= start {
		return
	}
	slots := int64(end - start)
	gb := s.mult * s.baseDemand * (float64(end-start) + s.amp*(job.sinSum[end]-job.sinSum[start]))
	s.gb += gb
	s.cost += gb * w.shared.svcPerGB
	if s.inBid {
		s.cost += float64(s.inst) * (job.priceSum[end] - job.priceSum[start])
		s.spot += s.inst * slots
		a.spotSlots += s.inst * slots
	} else {
		s.cost += float64(s.inst) * w.shared.lambda * float64(end-start)
		s.ondem += s.inst * slots
	}
}
