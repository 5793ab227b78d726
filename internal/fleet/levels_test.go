package fleet

import (
	"fmt"
	"math"
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
