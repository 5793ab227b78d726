package fleet

import (
	"math"
	"testing"

	"rentplan/internal/market"
)

// fuzzConfig decodes fuzz bytes into a small c1.medium run: at most 64
// ASPs, 200-slot epochs, 3 epochs and 4 shards. Bids are whole multiples of
// the generator's $0.001 price tick, so they land exactly on realised price
// levels, or one ULP to either side of one; horizons straddle the epoch
// length and reach past int32. A 0xFF byte escapes to a value validate
// rejects (zero, negative, NaN or infinite) or, for base demand and
// elasticity, to one that makes an ASP unplannable; zero shards, epochs,
// slots or ASPs decode from ordinary bytes.
func fuzzConfig(data []byte) *Config {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	pick := func(grid, escape []float64) float64 {
		b := next()
		if b == 0xFF {
			return escape[int(next())%len(escape)]
		}
		return grid[int(b)%len(grid)]
	}
	cfg := &Config{
		Class:      market.C1Medium,
		Shards:     int(next()) % 5,
		Epochs:     int(next()) % 4,
		EpochHours: (int(next())<<8 | int(next())) % 201,
		Feedback:   pick([]float64{0, 0, 0.2, 0.6, 2}, []float64{-1, nan, inf}),
		Seed:       int64(next())<<8 | int64(next()),
	}
	H := cfg.EpochHours
	horizons := []int{1, 2, 3, 7, 24, H - 1, H, H + 1, 1 << 31, math.MaxInt}
	n := int(next()) % 65
	for range n {
		bid := float64(1+int(next())%200) * 0.001
		if b := next(); b == 0xFF {
			bid = []float64{0, -1, nan, inf}[int(next())%4]
		} else if b%3 > 0 {
			bid = math.Nextafter(bid, []float64{0, inf}[b%3-1])
		}
		a := ASP{
			Bid:        bid,
			BaseDemand: pick([]float64{0, 0.1, 0.4, 1, 2.5}, []float64{-1, nan, inf, 1e300}),
			DiurnalAmp: pick([]float64{0, 0.3, 0.6, 0.99}, []float64{-0.1, 1, nan, inf}),
			Elasticity: pick([]float64{0, 0.5, 1.5}, []float64{-1, nan, inf, 1e6}),
		}
		if b := next(); b != 0xFF {
			a.PlanHorizon = horizons[int(b)%len(horizons)]
		}
		cfg.Population = append(cfg.Population, a)
	}
	return cfg
}

// FuzzFleetMatchesPolling holds Run to the polling oracle on decoded
// configs: both fail whenever validate rejects the config; otherwise both
// fail with the same error (an ASP the run cannot plan) or agree on every
// integer counter and epoch report exactly and on costs to 1e-9, and every
// shard count from 1 to 4 gives a bit-identical result.
func FuzzFleetMatchesPolling(f *testing.F) {
	f.Add([]byte{0})
	// shards, epochs, 2 bytes of slots, feedback, 2 bytes of seed, ASPs,
	// then per ASP: bid tick, ULP side, demand, amplitude, elasticity and
	// horizon.
	f.Add([]byte{1, 1, 0, 24, 0, 0, 7, 3, 59, 0, 1, 1, 1, 4, 60, 1, 2, 2, 2, 5, 61, 2, 3, 3, 1, 6})
	f.Add([]byte{4, 3, 0, 168, 3, 1, 2, 4, 40, 0, 2, 1, 1, 8, 60, 1, 1, 2, 2, 9, 59, 2, 4, 3, 1, 0, 120, 0, 1, 1, 0, 6})
	f.Add([]byte{3, 2, 0, 200, 2, 0, 9, 2, 61, 0, 0xFF, 3, 1, 1, 5, 62, 0, 1, 2, 2, 3})
	f.Add([]byte{2, 1, 0, 48, 0xFF, 1, 0, 1, 1, 60, 0, 1, 1, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		res, err := Run(cfg)
		pl, perr := RunPolling(cfg)
		if verr := cfg.validate(); verr != nil {
			if err == nil || perr == nil {
				t.Fatalf("validate rejects (%v) but Run error %v, RunPolling error %v", verr, err, perr)
			}
			return
		}
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("Run error %v, RunPolling error %v", err, perr)
		}
		if err != nil {
			return
		}
		if msg := pollingMismatch(res, pl); msg != "" {
			t.Fatalf("%d ASPs, %d×%d slots, shards=%d: %s", len(cfg.Population), cfg.Epochs, cfg.EpochHours, cfg.Shards, msg)
		}
		for shards := 1; shards <= 4; shards++ {
			if shards == cfg.Shards {
				continue
			}
			c := *cfg
			c.Shards = shards
			alt, err := Run(&c)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if msg := resultMismatch(res, alt); msg != "" {
				t.Fatalf("shards=%d vs %d: %s", shards, cfg.Shards, msg)
			}
		}
	})
}
