package fleet

import (
	"context"
	"math"
	"math/bits"
	"slices"
)

// ctxStride is how many ASPs a shard settles between cancellation checks.
const ctxStride = 4096

// runEpochLite settles one epoch for every ASP in the shard with the
// closed-form lite planner, in one sequential pass in index order. The
// shard first tabulates the epoch per price level (levelTables.build);
// each ASP then settles in O(1) from its bid's interval: inst·c spot slots
// and inst·(H−c) on-demand slots for the interval's in-bid slot count c,
// compute cost from the interval's in-bid price sum and the on-demand rate,
// demand from the diurnal sum, and one solve per wake.
//
// The pass stops at the first ASP whose instance count the run cannot
// tally. Shards are contiguous index ranges and the market loop reports the
// first failing shard's ack, so the run's error names the lowest failing
// ASP of the first failing epoch under any shard count.
func (w *shardWorker) runEpochLite(ctx context.Context, job epochWork) epochAck {
	var a epochAck
	lt := &w.levels
	lt.build(job.prices, len(w.pop))
	H := len(job.prices)
	sh := &w.shared
	logRatio := math.Log(sh.p0 / job.meanPrice)
	for i := range w.pop {
		if i%ctxStride == 0 && ctx.Err() != nil {
			return a // truncated ack; the cancelled run discards it
		}
		asp := &w.pop[i]
		mult := epochMult(asp.Elasticity, logRatio)
		inst, ok := epochInstances(mult, asp.BaseDemand, sh.maxInst)
		if !ok {
			a.err = aspError(job.epoch, w.lo+i, instancesError(mult, asp.BaseDemand))
			return a
		}
		j := interval(lt.q, asp.Bid)
		// A plan that outlives the epoch never expires inside it, so
		// clamping the horizon to H changes no wake count.
		wakes := lt.wakes(j, min(asp.PlanHorizon, H))
		c := lt.slots[j]
		gb := mult * asp.BaseDemand * (float64(H) + asp.DiurnalAmp*sh.sinTotal)
		o := &w.out[i]
		o.Cost += gb*sh.svcPerGB + float64(inst)*(lt.sum[j]+sh.lambda*float64(int64(H)-c))
		o.DemandGB += gb
		o.SpotSlots += inst * c
		o.OnDemandSlots += inst * (int64(H) - c)
		o.Wakes += wakes
		o.Solves += wakes
		a.spotSlots += inst * c
		a.wakes += wakes
	}
	a.solves = a.wakes
	return a
}

// levelTables summarises one epoch's prices per price level. The epoch's
// distinct prices q[0] < … < q[m-1] split the bid axis into m+1 intervals:
// interval j holds the bids with exactly j levels at or below them. An ASP
// is in-bid at slot t iff its bid >= price[t], so every bid in interval j
// is in-bid at exactly the slots priced at one of the j lowest levels and
// crosses regime at exactly the same slots. Everything the lite planner
// needs of an epoch is therefore a constant of the interval.
//
// The slices are shard-owned scratch reused from epoch to epoch. Their
// size is O(H + m + E) for an epoch of H slots whose price changes step
// across E level boundaries in total; nothing is sized m × H.
type levelTables struct {
	q []float64 // the distinct prices, ascending
	// slots[j] and sum[j] are interval j's in-bid slot count and the sum of
	// its in-bid prices.
	slots []int64
	sum   []float64
	// seg[off[j]:off[j+1]] are the lengths of interval j's constant-regime
	// segments [0, x₁), [x₁, x₂), …, [x_k, H), where x₁ < … < x_k are the
	// slots at which its bids cross.
	off []int
	seg []int
	// rank and next are build scratch: each slot's level rank (the
	// interval of a bid equal to its price) and each interval's next free
	// segment.
	rank, next []int
	memo       []wakeMemo
}

// memoBits caps the wake memo at 4096 entries, which hold every (interval,
// horizon) pair without collision while intervals stay below 32 and
// horizons below 128: week-long epochs and the 1–4-day horizons
// SamplePopulation draws. Other pairs share entries and recompute on a
// miss. A shard of fewer ASPs, which has fewer pairs, gets a smaller memo.
const memoBits = 12

// wakeMemo caches one (interval, horizon) wake count; h == 0 marks an empty
// entry, since horizons are at least 1.
type wakeMemo struct {
	j, h  int
	wakes int64
}

// build tabulates the epoch's prices for a shard of asps ASPs.
func (lt *levelTables) build(prices []float64, asps int) {
	H := len(prices)
	lt.q = append(lt.q[:0], prices...)
	slices.Sort(lt.q)
	lt.q = slices.Compact(lt.q)
	m := len(lt.q)
	lt.slots = zeroed(lt.slots, m+1)
	lt.sum = zeroed(lt.sum, m+1)
	lt.next = zeroed(lt.next, m+1)
	lt.rank = zeroed(lt.rank, H)
	// Per-level slot counts and price sums, and in next the difference
	// array of crossing counts: the change from rank a to rank b crosses
	// intervals min(a,b) … max(a,b)−1.
	for t, p := range prices {
		r := interval(lt.q, p)
		lt.rank[t] = r
		lt.slots[r]++
		lt.sum[r] += p
		if t > 0 && r != lt.rank[t-1] {
			lt.next[min(r, lt.rank[t-1])]++
			lt.next[max(r, lt.rank[t-1])]--
		}
	}
	lt.off = zeroed(lt.off, m+2)
	crossings := 0
	for j := 0; j <= m; j++ {
		if j > 0 {
			lt.slots[j] += lt.slots[j-1]
			lt.sum[j] += lt.sum[j-1]
		}
		crossings += lt.next[j]
		lt.off[j+1] = lt.off[j] + crossings + 1
		lt.next[j] = lt.off[j]
	}
	// Each interval's crossing slots in order, closed by H, then turned
	// into segment lengths in place.
	lt.seg = zeroed(lt.seg, lt.off[m+1])
	for t := 1; t < H; t++ {
		a, b := lt.rank[t-1], lt.rank[t]
		for j := min(a, b); j < max(a, b); j++ {
			lt.seg[lt.next[j]] = t
			lt.next[j]++
		}
	}
	for j := 0; j <= m; j++ {
		s := lt.seg[lt.off[j]:lt.off[j+1]]
		s[len(s)-1] = H
		for k := len(s) - 1; k > 0; k-- {
			s[k] -= s[k-1]
		}
	}
	lt.memo = zeroed(lt.memo, 1<<min(memoBits, bits.Len(uint(asps))))
}

// wakes is the wake (and solve) count of an ASP in interval j whose plans
// last h ≤ H slots. It wakes at the start of each segment and every h slots
// inside it, 1+⌊(L−1)/h⌋ times in a segment of L slots: a crossing re-plans
// and restarts the horizon, so it supersedes an expiry in the same slot.
func (lt *levelTables) wakes(j, h int) int64 {
	e := &lt.memo[(j<<7+h)&(len(lt.memo)-1)]
	if e.j == j && e.h == h {
		return e.wakes
	}
	var n int64
	for _, l := range lt.seg[lt.off[j]:lt.off[j+1]] {
		n += int64(1 + (l-1)/h)
	}
	*e = wakeMemo{j, h, n}
	return n
}

// interval is the number of levels at or below bid: the index of the
// interval bid falls in.
func interval(q []float64, bid float64) int {
	lo, hi := 0, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q[mid] <= bid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zeroed returns s resized to n zero elements, reusing its backing array
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
