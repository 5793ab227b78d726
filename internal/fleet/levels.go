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
// each ASP then settles in O(1) from its bid's interval, which one bucket
// lookup finds (levelTables.lookup): inst·c spot slots and inst·(H−c)
// on-demand slots for the interval's in-bid slot count c, compute cost
// inst·(S+λ·(H−c)) for its in-bid price sum S and the on-demand rate λ,
// demand from the diurnal sum, and one solve per wake.
//
// The pass stops at the first ASP whose instance count the run cannot
// tally. Shards are contiguous index ranges and the market loop reports the
// first failing shard's ack, so the run's error names the lowest failing
// ASP of the first failing epoch under any shard count.
func (w *shardWorker) runEpochLite(ctx context.Context, job epochWork) epochAck {
	var a epochAck
	lt := &w.levels
	sh := &w.shared
	lt.build(job.prices, sh.lambda, len(w.pop))
	H := len(job.prices)
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
		j := lt.lookup(asp.Bid)
		// A plan that outlives the epoch never expires inside it, so
		// clamping the horizon to H changes no wake count.
		wakes := lt.wakes(j, min(asp.PlanHorizon, H))
		s := &lt.settle[j]
		gb := mult * asp.BaseDemand * (float64(H) + asp.DiurnalAmp*sh.sinTotal)
		o := &w.out[i]
		o.Cost += gb*sh.svcPerGB + float64(inst)*s.rate
		o.DemandGB += gb
		o.SpotSlots += inst * s.spot
		o.OnDemandSlots += inst * s.onDemand
		o.Wakes += wakes
		o.Solves += wakes
		a.spotSlots += inst * s.spot
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
// needs of an epoch is therefore a constant of the interval, and a bucket
// index over the levels finds a bid's interval without a search (lookup).
//
// The slices are shard-owned scratch reused from epoch to epoch. Their
// size is O(H + m + E) for an epoch of H slots whose price changes step
// across E level boundaries in total; nothing is sized m × H.
type levelTables struct {
	q []float64 // the distinct prices, ascending
	// settle[j] is interval j's settlement entry.
	settle []settleEntry
	// buckets is the index over q (index, lookup); bucket b holds the
	// levels whose grid index is b, under the grid lo, scale and top
	// define (gridIndex).
	buckets        []bucket
	lo, scale, top float64
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

// settleEntry is what an ASP in one interval settles its epoch from, per
// instance: the in-bid slot count c, the out-of-bid count H−c, and the
// compute cost S+λ·(H−c) for the interval's in-bid price sum S and the
// on-demand rate λ.
type settleEntry struct {
	spot, onDemand int64
	rate           float64
}

// bucket is one cell of the level index. level is the bucket's lowest
// level and q[first:end] are its further levels, so end counts the levels
// in it and in every lower bucket. An empty bucket has first = end and
// level −Inf, which lies below every bid and so is never subtracted.
type bucket struct {
	level      float64
	first, end int
}

// maxBuckets caps the level index; an epoch of more than maxBuckets/4
// levels shares buckets, and a bid scans its bucket's further levels.
const maxBuckets = 4096

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

// build tabulates the epoch's prices, for on-demand rate lambda, for a
// shard of asps ASPs.
func (lt *levelTables) build(prices []float64, lambda float64, asps int) {
	H := len(prices)
	lt.q = append(lt.q[:0], prices...)
	slices.Sort(lt.q)
	lt.q = slices.Compact(lt.q)
	m := len(lt.q)
	lt.settle = zeroed(lt.settle, m+1)
	lt.next = zeroed(lt.next, m+1)
	lt.rank = zeroed(lt.rank, H)
	// Per-level slot counts and price sums (held in rate until the prefix
	// pass), and in next the difference array of crossing counts: the
	// change from rank a to rank b crosses intervals min(a,b) … max(a,b)−1.
	for t, p := range prices {
		r := interval(lt.q, p)
		lt.rank[t] = r
		lt.settle[r].spot++
		lt.settle[r].rate += p
		if t > 0 && r != lt.rank[t-1] {
			lt.next[min(r, lt.rank[t-1])]++
			lt.next[max(r, lt.rank[t-1])]--
		}
	}
	lt.off = zeroed(lt.off, m+2)
	crossings, c, sum := 0, int64(0), 0.0
	for j := 0; j <= m; j++ {
		e := &lt.settle[j]
		c += e.spot
		sum += e.rate
		*e = settleEntry{spot: c, onDemand: int64(H) - c, rate: sum + lambda*float64(int64(H)-c)}
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
	lt.index()
	lt.memo = zeroed(lt.memo, 1<<min(memoBits, bits.Len(uint(asps))))
}

// index builds the bucket index over q in O(m + G) for G grid buckets, the
// power of two at least 4m, capped at maxBuckets. The grid works in half
// units, (x/2 − q[0]/2)·G/(q[m-1]/2 − q[0]/2), so no difference of finite
// values overflows. Where the scale G/(q[m-1]/2 − q[0]/2) is not finite
// (one level, or levels a few ULPs apart near zero), the index is a single
// bucket that holds every level.
func (lt *levelTables) index() {
	m := len(lt.q)
	g := min(1<<bits.Len(uint(4*m-1)), maxBuckets)
	lt.lo = lt.q[0] * 0.5
	lt.scale = float64(g) / (lt.q[m-1]*0.5 - lt.lo)
	if !(lt.scale <= math.MaxFloat64) {
		g, lt.scale = 0, 0
	}
	lt.top = float64(g)
	lt.buckets = zeroed(lt.buckets, g+1)
	// The levels ascend and the grid index is monotone, so each bucket's
	// levels are a run of q and the first one met is its lowest. end counts
	// the bucket's levels until the prefix pass. A zero level is stored as
	// −0 (lookup says why); the two compare equal everywhere else.
	for k, l := range lt.q {
		if l == 0 { //lint:ignore rentlint/floatcmp only an exact zero, of either sign, can give lookup a difference of −0
			l = math.Copysign(0, -1)
			lt.q[k] = l
		}
		e := &lt.buckets[lt.gridIndex(l)]
		if e.end == 0 {
			e.level = l
		}
		e.end++
	}
	n := 0
	for b := range lt.buckets {
		e := &lt.buckets[b]
		if e.end == 0 {
			e.level = math.Inf(-1)
		}
		e.first = n + min(e.end, 1)
		n += e.end
		e.end = n
	}
}

// gridIndex is x's bucket: a monotone function of x, finite for every
// finite x, clamped to the grid.
func (lt *levelTables) gridIndex(x float64) int {
	return int(min(max((x*0.5-lt.lo)*lt.scale, 0), lt.top))
}

// lookup is the number of levels at or below a finite bid, as interval
// computes it, from one bucket: its end, less each of its levels that lies
// above the bid. Since the grid index is monotone, every level in a lower
// bucket lies at or below the bid and every level in a higher bucket above
// it. On generated weeks no bucket holds two levels, so the scan of
// further levels does nothing there.
//
// Each comparison bid < level is the sign bit of bid − level, which needs
// no branch: the difference of two finite values is zero only when they
// are equal, and +Inf against an empty bucket's −Inf. The difference is
// −0 only for −0 − (+0), which index rules out by storing a zero level as
// −0. Written as an if, the comparison compiles to a branch that
// mispredicts for bids near a level. The body stays within the compiler's
// inlining budget, so runEpochLite pays no call.
func (lt *levelTables) lookup(bid float64) int {
	e := lt.buckets[lt.gridIndex(bid)]
	j := e.end - int(math.Float64bits(bid-e.level)>>63)
	for k := e.first; k < e.end; k++ {
		j -= int(math.Float64bits(bid-lt.q[k]) >> 63)
	}
	return j
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
// interval bid falls in, by binary search. build ranks each slot's price
// with it, and the tests hold lookup to it.
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
