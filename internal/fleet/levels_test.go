package fleet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rentplan/internal/market"
)

// pollingMismatch describes the first way a lite run departs from the
// polling oracle, or returns "": epoch reports, the feedback trajectory and
// every integer counter must match exactly, costs and demand to 1e-9.
func pollingMismatch(res, pl *Result) string {
	if res.Wakes != pl.Wakes || res.Solves != pl.Solves || res.SlotsSimulated != pl.SlotsSimulated ||
		res.FinalBaseSpot != pl.FinalBaseSpot || len(res.Epochs) != len(pl.Epochs) {
		return fmt.Sprintf("aggregates differ: wakes %d/%d solves %d/%d slots %d/%d base %v/%v epochs %d/%d",
			res.Wakes, pl.Wakes, res.Solves, pl.Solves, res.SlotsSimulated, pl.SlotsSimulated,
			res.FinalBaseSpot, pl.FinalBaseSpot, len(res.Epochs), len(pl.Epochs))
	}
	for e := range res.Epochs {
		if res.Epochs[e] != pl.Epochs[e] {
			return fmt.Sprintf("epoch %d reports differ:\nlite    %+v\npolling %+v", e, res.Epochs[e], pl.Epochs[e])
		}
	}
	for i := range res.PerASP {
		a, b := res.PerASP[i], pl.PerASP[i]
		if a.SpotSlots != b.SpotSlots || a.OnDemandSlots != b.OnDemandSlots || a.Wakes != b.Wakes || a.Solves != b.Solves ||
			relDiff(a.Cost, b.Cost) > 1e-9 || relDiff(a.DemandGB, b.DemandGB) > 1e-9 {
			return fmt.Sprintf("ASP %d outcomes differ:\nlite    %+v\npolling %+v", i, a, b)
		}
	}
	if relDiff(res.TotalCost, pl.TotalCost) > 1e-9 || relDiff(res.DemandGB, pl.DemandGB) > 1e-9 {
		return fmt.Sprintf("totals differ: cost %v/%v demand %v/%v", res.TotalCost, pl.TotalCost, res.DemandGB, pl.DemandGB)
	}
	return ""
}

// resultMismatch describes the first bit-level difference between two
// results, or returns "".
func resultMismatch(a, b *Result) string {
	if a.TotalCost != b.TotalCost || a.DemandGB != b.DemandGB || a.FinalBaseSpot != b.FinalBaseSpot ||
		a.SlotsSimulated != b.SlotsSimulated || a.Wakes != b.Wakes || a.Solves != b.Solves {
		return fmt.Sprintf("aggregates differ: cost %v/%v demand %v/%v base %v/%v wakes %d/%d",
			a.TotalCost, b.TotalCost, a.DemandGB, b.DemandGB, a.FinalBaseSpot, b.FinalBaseSpot, a.Wakes, b.Wakes)
	}
	if !slices.Equal(a.Epochs, b.Epochs) {
		return fmt.Sprintf("epoch reports differ:\n%+v\n%+v", a.Epochs, b.Epochs)
	}
	for i := range a.PerASP {
		if a.PerASP[i] != b.PerASP[i] {
			return fmt.Sprintf("ASP %d outcomes differ:\n%+v\n%+v", i, a.PerASP[i], b.PerASP[i])
		}
	}
	return ""
}

// A plan horizon beyond int32 must neither crash a shard nor change a
// count: a plan that outlives the epoch never expires inside it.
func TestHugePlanHorizonMatchesPolling(t *testing.T) {
	cfg := testConfig(t, 60, 1)
	huge := []int{1 << 31, 1 << 32, math.MaxInt}
	for i := range cfg.Population {
		if i%2 == 0 {
			cfg.Population[i].PlanHorizon = huge[i/2%len(huge)]
		}
	}
	pl, err := RunPolling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		c := *cfg
		c.Shards = shards
		res, err := Run(&c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if msg := pollingMismatch(res, pl); msg != "" {
			t.Fatalf("shards=%d: %s", shards, msg)
		}
	}
}

// Bids exactly on a realised price level, and one ULP to either side, are
// where the in-bid test price <= bid decides the interval: a bid on a level
// is in-bid at that level's slots. The lite engine must agree with the
// polling oracle on every such bid, for horizons on either side of the
// epoch length.
func TestLiteMatchesPollingAtPriceLevels(t *testing.T) {
	const class, seed, epochs = market.C1Medium, 5, 3
	gc, err := market.DefaultGenConfig(class)
	if err != nil {
		t.Fatal(err)
	}
	for _, H := range []int{1, 2, 25, 168} {
		// Every epoch's prices as RunCtx generates them: with Feedback 0
		// each epoch prices from the calibrated base level.
		var levels []float64
		means := make([]float64, epochs)
		for e := range epochs {
			g, err := market.NewGenerator(class, seed+int64(e)*epochSeedStride)
			if err != nil {
				t.Fatal(err)
			}
			g.Cfg.BaseSpot = gc.BaseSpot
			prices, err := g.Trace((H+23)/24).Hourly(0, H)
			if err != nil {
				t.Fatal(err)
			}
			levels = append(levels, prices...)
			for _, p := range prices {
				means[e] += p
			}
			means[e] /= float64(H)
		}
		slices.Sort(levels)
		levels = slices.Compact(levels)
		var pop []ASP
		for _, q := range levels {
			for _, bid := range []float64{math.Nextafter(q, 0), q, math.Nextafter(q, math.Inf(1))} {
				for _, h := range []int{1, H - 1, H, H + 1} {
					if h < 1 {
						continue
					}
					pop = append(pop, ASP{
						Bid:         bid,
						BaseDemand:  0.05 * float64(1+len(pop)%40),
						DiurnalAmp:  0.4,
						Elasticity:  0.9,
						PlanHorizon: h,
					})
				}
			}
		}
		cfg := Config{Class: class, Population: pop, Shards: 1, Epochs: epochs, EpochHours: H, Seed: seed}
		pl, err := RunPolling(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e, rep := range pl.Epochs {
			if rep.MeanPrice != means[e] {
				t.Fatalf("H=%d epoch %d: regenerated mean price %v, run priced %v", H, e, means[e], rep.MeanPrice)
			}
		}
		for _, shards := range []int{1, 3} {
			c := cfg
			c.Shards = shards
			res, err := Run(&c)
			if err != nil {
				t.Fatalf("H=%d shards=%d: %v", H, shards, err)
			}
			if msg := pollingMismatch(res, pl); msg != "" {
				t.Fatalf("H=%d shards=%d, %d levels: %s", H, shards, len(levels), msg)
			}
		}
	}
}

// hardLevelSets are the level sets where a naive bucket index breaks or
// degenerates: one level; levels one ULP apart; several levels in one
// bucket; zero and negative levels; spans that overflow a float64; and
// subnormal spans, whose grid scale overflows.
var hardLevelSets = [][]float64{
	{0.05},
	{0.05, math.Nextafter(0.05, 1)},
	{0.01, 0.011, 0.012, 0.0120000001, 100},
	{1, 1 + 1e-12, 1 + 2e-12, 1 + 3e-12, 2, 3},
	{-3, -2.5, -1e-300, math.Copysign(0, -1), 0, 5e-324, 0.25},
	{-1e308, 1e308},
	{-math.MaxFloat64, math.MaxFloat64},
	{-math.MaxFloat64, -1, 0, 1, math.MaxFloat64},
	{5e-324, 1e-323},
	{0, 5e-324},
	{-5e-324, 0},
}

// levelIndexMismatch builds lt from prices and compares lookup with
// interval at every level, one ULP to either side of it, the extreme
// finite values, and probes; it describes the first disagreement or
// returns "".
func levelIndexMismatch(lt *levelTables, prices, probes []float64) string {
	lt.build(prices, 0.1, 1)
	xs := append([]float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64}, probes...)
	for _, q := range lt.q {
		xs = append(xs, q, math.Nextafter(q, math.Inf(-1)), math.Nextafter(q, math.Inf(1)))
	}
	for _, x := range xs {
		if math.IsInf(x, 0) {
			continue
		}
		if got, want := lt.lookup(x), interval(lt.q, x); got != want {
			return fmt.Sprintf("%d levels from %v (%d buckets): lookup(%v) = %d, interval = %d",
				len(lt.q), lt.q[:min(len(lt.q), 10)], len(lt.buckets), x, got, want)
		}
	}
	return ""
}

// The bucket index must count exactly the levels at or below every finite
// bid, as the binary search does, on level sets where a naive index
// (bid − q₀)·(G/span) turns NaN, and on generated c1.medium weeks.
func TestLevelIndexMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := slices.Clone(hardLevelSets)
	// More levels than maxBuckets/4, so buckets share levels.
	many := make([]float64, 3000)
	for i := range many {
		many[i] = rng.Float64()
	}
	sets = append(sets, many)
	var lt levelTables
	check := func(prices []float64) {
		t.Helper()
		lo, hi := slices.Min(prices), slices.Max(prices)
		var probes []float64
		for range 400 {
			// Points in the range and up to half a span beyond it; one
			// that overflows is skipped.
			u := 2*rng.Float64() - 0.5
			probes = append(probes, lo*(1-u)+hi*u)
		}
		if msg := levelIndexMismatch(&lt, prices, probes); msg != "" {
			t.Fatal(msg)
		}
	}
	for _, prices := range sets {
		check(prices)
	}
	gc, err := market.DefaultGenConfig(market.C1Medium)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		g, err := market.NewGenerator(market.C1Medium, seed)
		if err != nil {
			t.Fatal(err)
		}
		g.Cfg.BaseSpot = gc.BaseSpot * (0.5 + 0.1*float64(seed))
		week, err := g.Trace(7).Hourly(0, 168)
		if err != nil {
			t.Fatal(err)
		}
		check(week)
		// A generated week puts each level in a bucket of its own, so no
		// bid scans.
		for _, e := range lt.buckets {
			if e.end > e.first {
				t.Fatalf("seed %d: a bucket holds %d further levels (levels %v)", seed, e.end-e.first, lt.q)
			}
		}
	}
}

// levelFuzzInput encodes prices and bids in FuzzLevelIndex's format, with
// no escapes, which no finite value needs: the price count, then each value
// as big-endian float64 bits.
func levelFuzzInput(prices, bids []float64) []byte {
	data := []byte{byte(len(prices) - 1)}
	for _, v := range append(slices.Clone(prices), bids...) {
		data = binary.BigEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// decodeLevelFuzz decodes FuzzLevelIndex's input: a byte giving the price
// count (1–64), then the prices, then at most 64 bids. Each value is eight
// bytes of big-endian float64 bits, NaN and ±Inf skipped, unless its first
// two bytes are 0xFF 0xFn, which begin only a negative NaN or −Inf: then
// those two bytes alone escape, by n, to a duplicate of the previous value,
// one ULP either side of it, ±MaxFloat64, ±SmallestNonzeroFloat64 or ±0.
func decodeLevelFuzz(data []byte) (prices, bids []float64) {
	if len(data) == 0 {
		return nil, nil
	}
	nPrices := 1 + int(data[0])%64
	data = data[1:]
	last := 0.0
	var vals []float64
	for len(data) > 0 && len(vals) < nPrices+64 {
		var v float64
		if len(data) > 1 && data[0] == 0xFF && data[1] >= 0xF0 {
			esc := data[1] & 0x0F
			data = data[2:]
			sign := 1.0
			if esc&1 == 1 {
				sign = -1
			}
			switch (esc >> 1) % 6 {
			case 0:
				v = last
			case 1:
				v = math.Nextafter(last, math.Inf(1))
			case 2:
				v = math.Nextafter(last, math.Inf(-1))
			case 3:
				v = sign * math.MaxFloat64
			case 4:
				v = sign * math.SmallestNonzeroFloat64
			case 5:
				v = math.Copysign(0, sign)
			}
		} else {
			var b [8]byte
			data = data[copy(b[:], data):]
			v = math.Float64frombits(binary.BigEndian.Uint64(b[:]))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		vals = append(vals, v)
		last = v
	}
	n := min(nPrices, len(vals))
	return vals[:n], vals[n:]
}

// FuzzLevelIndex holds the bucket index to the binary search on decoded
// level sets and bids: lookup must equal interval at every bid, every
// level and one ULP to either side of it, and never panic.
func FuzzLevelIndex(f *testing.F) {
	// Each seed must decode to the values it was made from.
	add := func(data []byte, prices, bids []float64) {
		same := func(x, y []float64) bool {
			return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
		}
		if p, b := decodeLevelFuzz(data); !same(p, prices) || !same(b, bids) {
			f.Fatalf("seed for prices %v, bids %v decodes to %v, %v", prices, bids, p, b)
		}
		f.Add(data)
	}
	for _, prices := range hardLevelSets {
		lo, hi := slices.Min(prices), slices.Max(prices)
		bids := []float64{lo / 2, hi / 2, lo/2 + hi/2}
		add(levelFuzzInput(prices, bids), prices, bids)
	}
	// Escapes: 0.05, a duplicate, one ULP up, one ULP down, then the bids
	// MaxFloat64, −SmallestNonzeroFloat64 and −0.
	seed := levelFuzzInput([]float64{0.05}, nil)
	seed[0] = 3
	add(append(seed, 0xFF, 0xF0, 0xFF, 0xF2, 0xFF, 0xF4, 0xFF, 0xF6, 0xFF, 0xF9, 0xFF, 0xFB),
		[]float64{0.05, 0.05, math.Nextafter(0.05, 1), 0.05},
		[]float64{math.MaxFloat64, -math.SmallestNonzeroFloat64, math.Copysign(0, -1)})
	var lt levelTables
	f.Fuzz(func(t *testing.T, data []byte) {
		prices, bids := decodeLevelFuzz(data)
		if len(prices) == 0 {
			return
		}
		if msg := levelIndexMismatch(&lt, prices, bids); msg != "" {
			t.Fatal(msg)
		}
	})
}
