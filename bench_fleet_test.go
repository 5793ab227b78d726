package rentplan_test

// BenchmarkFleet is the headline run behind `make bench-fleet`: a >= 100k
// ASP population over multi-week epochs, comparing the sharded lite engine
// (each ASP's epoch settled in O(1) from per-price-level tables) against
// the naive per-ASP slot-polling walk it replaces. The benchmark enforces
// the two fleet acceptance gates itself:
//
//   - >= 10x ASP-slots/sec for the lite engine vs the polling baseline on
//     the same population and market, and
//   - bit-identical results across shard counts {1, 4, 8}.
//
// When BENCH_FLEET_OUT is set the report is written there (the Makefile
// points it at BENCH_fleet.json).

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"rentplan/internal/fleet"
	"rentplan/internal/market"
)

const (
	benchFleetASPs   = 100_000
	benchFleetHours  = 168
	benchFleetEpochs = 16
)

func benchFleetConfig(b *testing.B, shards int) *fleet.Config {
	b.Helper()
	pop, err := fleet.SamplePopulation(benchFleetASPs, market.C1Medium, 42)
	if err != nil {
		b.Fatal(err)
	}
	return &fleet.Config{
		Class:      market.C1Medium,
		Population: pop,
		Shards:     shards,
		Epochs:     benchFleetEpochs,
		EpochHours: benchFleetHours,
		Feedback:   0.3,
		Seed:       7,
	}
}

func BenchmarkFleet(b *testing.B) {
	var (
		evRes, plRes    *fleet.Result
		evSec, plSec    float64
		epochMS         []float64
		identityChecked bool
	)
	for i := 0; i < b.N; i++ {
		// The sharded lite engine, timing each epoch via the OnEpoch hook
		// (the fleet package itself never reads a clock).
		cfg := benchFleetConfig(b, 4)
		epochMS = epochMS[:0]
		mark := time.Now()
		cfg.OnEpoch = func(fleet.EpochReport) {
			epochMS = append(epochMS, float64(time.Since(mark).Microseconds())/1000)
			mark = time.Now()
		}
		start := time.Now()
		var err error
		evRes, err = fleet.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		evSec = time.Since(start).Seconds()

		// Naive per-ASP slot-polling baseline on the same population.
		start = time.Now()
		plRes, err = fleet.RunPolling(benchFleetConfig(b, 1))
		if err != nil {
			b.Fatal(err)
		}
		plSec = time.Since(start).Seconds()

		// The comparison is only honest if both engines simulated the same
		// market: identical wake counts and feedback trajectory.
		if evRes.Wakes != plRes.Wakes || evRes.FinalBaseSpot != plRes.FinalBaseSpot {
			b.Fatalf("engines diverged: wakes %d/%d, final base %v/%v",
				evRes.Wakes, plRes.Wakes, evRes.FinalBaseSpot, plRes.FinalBaseSpot)
		}

		// Shard-count bit-identity gate, checked once per benchmark run on
		// the full population.
		if !identityChecked {
			identityChecked = true
			for _, shards := range []int{1, 8} {
				alt, err := fleet.Run(benchFleetConfig(b, shards))
				if err != nil {
					b.Fatal(err)
				}
				if alt.TotalCost != evRes.TotalCost || alt.FinalBaseSpot != evRes.FinalBaseSpot ||
					alt.Wakes != evRes.Wakes || alt.DemandGB != evRes.DemandGB {
					b.Fatalf("shards=%d aggregate diverges from shards=4", shards)
				}
				for j := range alt.PerASP {
					if alt.PerASP[j] != evRes.PerASP[j] {
						b.Fatalf("shards=%d ASP %d outcome diverges from shards=4", shards, j)
					}
				}
				for e := range alt.Epochs {
					if alt.Epochs[e] != evRes.Epochs[e] {
						b.Fatalf("shards=%d epoch %d diverges from shards=4", shards, e)
					}
				}
			}
		}
	}

	evRate := float64(evRes.SlotsSimulated) / evSec
	plRate := float64(plRes.SlotsSimulated) / plSec
	speedup := evRate / plRate
	sort.Float64s(epochMS)
	p50 := epochMS[len(epochMS)/2]
	b.ReportMetric(evRate, "ASP-slots/sec")
	b.ReportMetric(plRate, "polling-slots/sec")
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(p50, "p50-epoch-ms")
	b.ReportMetric(100*float64(evRes.Wakes)/float64(evRes.SlotsSimulated), "wake-%")

	// Acceptance gate: the lite engine must beat slot polling by at least
	// 10x on ASP-slots/sec at this population size.
	if speedup < 10 {
		b.Fatalf("event-driven core only %.1fx faster than slot polling (want >= 10x): %.3g vs %.3g ASP-slots/sec",
			speedup, evRate, plRate)
	}

	if out := os.Getenv("BENCH_FLEET_OUT"); out != "" {
		doc := map[string]interface{}{
			"benchmark": "BenchmarkFleet",
			"goos":      runtime.GOOS,
			"goarch":    runtime.GOARCH,
			"cpus":      runtime.GOMAXPROCS(0),
			"config": map[string]interface{}{
				"asps":        benchFleetASPs,
				"epoch_hours": benchFleetHours,
				"epochs":      benchFleetEpochs,
				"shards":      4,
				"feedback":    0.3,
			},
			"results": map[string]interface{}{
				"asp_slots":             evRes.SlotsSimulated,
				"event_slots_per_sec":   evRate,
				"polling_slots_per_sec": plRate,
				"speedup":               speedup,
				"p50_epoch_ms":          p50,
				"wakes":                 evRes.Wakes,
				"wake_fraction":         float64(evRes.Wakes) / float64(evRes.SlotsSimulated),
				"final_base_spot":       evRes.FinalBaseSpot,
				"total_cost":            evRes.TotalCost,
			},
			"notes": "Event-driven sharded fleet core vs the naive per-ASP slot-polling walk on the same " +
				"100k-ASP population and market (identical wake counts and feedback trajectory, verified " +
				"in-bench). The event core pays only for price-change crossings and plan expiries: bid-sorted " +
				"state makes each change's flip band a contiguous sweep, ASPs whose bids fall outside the " +
				"epoch's price range settle whole epochs in closed form, and in-stride slots integrate from " +
				"prefix sums. Polling visits every ASP-slot with per-slot demand interface dispatch, as the " +
				"single-agent rolling executors do. Shard counts {1,4,8} are verified bit-identical in-bench " +
				"(per-ASP outcomes, epoch reports, aggregate cost).",
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", out)
	}
}
