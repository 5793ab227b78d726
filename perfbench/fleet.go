package main

import (
	"fmt"
	"runtime"
	"time"

	"rentplan/internal/fleet"
	"rentplan/internal/market"
	"rentplan/internal/serve/metrics"
)

// fleetEpochSeedStride mirrors the per-epoch generator seed offset of
// fleet.RunCtx, so the traced market-feed replay prices the same epochs.
const fleetEpochSeedStride = 1000003

func runFleet(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	nproc := runtime.NumCPU()
	asps, epochs, pollASPs := 1_000_000, 8, 50_000
	if cfg.smoke {
		asps, epochs, pollASPs = 20_000, 2, 2_000
	}
	const hours, feedback, class = 168, 0.3, market.C1Medium
	o.provenance["fleet"] = fmt.Sprintf("asps=%d epochs=%d epoch_hours=%d feedback=%v shards=%d planner=lite", asps, epochs, hours, feedback, nproc)

	// setup_s: sampling the population, median of five.
	setupS, pop, err := medianSetup(5, func() ([]fleet.ASP, error) { return fleet.SamplePopulation(asps, class, cfg.seed) })
	if err != nil {
		return nil, err
	}
	base := fleet.Config{
		Class: class, Population: pop, Shards: nproc, Epochs: epochs, EpochHours: hours,
		Feedback: feedback, Seed: cfg.seed, Planner: fleet.PlannerLite,
	}

	// first is the result of the first fleet.Run call; every later call is
	// held to it at once, so only one full-size result stays live.
	var first *fleet.Result
	if cfg.trace {
		if first, err = traceFleet(cfg, o, base); err != nil {
			return nil, err
		}
		o.attempted = 1
	} else {
		// Timed: whole fleet.Run calls until the measured seconds are spent.
		var rates, epochMS []float64
		start := time.Now()
		for len(rates) < 2 || time.Since(start).Seconds() < cfg.seconds {
			c := base
			runtime.GC() // the previous run's garbage is not this run's work
			var last time.Time
			c.OnEpoch = func(fleet.EpochReport) {
				now := time.Now()
				epochMS = append(epochMS, ms(now.Sub(last)))
				last = now
			}
			last = time.Now()
			t0 := last
			res, err := fleet.Run(&c)
			if err != nil {
				return nil, fmt.Errorf("fleet.Run: %w", err)
			}
			rates = append(rates, float64(res.SlotsSimulated)/time.Since(t0).Seconds())
			o.attempted++
			if first == nil {
				first = res
			} else if msg := sameFleet(first, res); msg != "" {
				o.wrong = append(o.wrong, fmt.Sprintf("run %d differs from run 1: %s", o.attempted, msg))
				o.failed++
			}
		}
		o.add("setup_s", setupS, "s", fmt.Sprintf("(fleet.SamplePopulation of %d ASPs, median of 5)", asps))
		o.add("plan_p50_ms", quantile(append([]float64(nil), epochMS...), 0.5), "ms", fmt.Sprintf("(one market epoch; of %d epochs)", len(epochMS)))
		o.add("throughput_per_s", median(rates), "1/s", fmt.Sprintf("(fleet_slots_per_s: ASP-slots/s, median of %d fleet.Run calls)", len(rates)))
		// Peak memory of the timed runs, before the checks below allocate
		// a second full-size result.
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		o.add("peak_rss_mb", rss, "MiB", "(benchmark process VmHWM)")
	}
	// Untimed checks: the first run bit for bit against an untimed
	// one-shard run, and the event engine against the slot-polling oracle
	// on a sub-population. Either mismatch makes every run wrong.
	one := base
	one.Shards = 1
	ref, err := fleet.Run(&one)
	if err != nil {
		return nil, err
	}
	sub := base
	sub.Population = pop[:pollASPs]
	ev, err := fleet.Run(&sub)
	if err != nil {
		return nil, err
	}
	pl, err := fleet.RunPolling(&sub)
	if err != nil {
		return nil, err
	}
	if msg := sameFleet(ref, first); msg != "" {
		o.wrong = append(o.wrong, fmt.Sprintf("%d shards vs 1 shard: %s", nproc, msg))
		o.failed = o.attempted
	}
	if msg := matchesPolling(ev, pl); msg != "" {
		o.wrong = append(o.wrong, fmt.Sprintf("event engine vs polling on %d ASPs: %s", pollASPs, msg))
		o.failed = o.attempted
	}
	if !cfg.trace {
		o.add("answered_share", ratio(float64(o.attempted-o.failed), float64(o.attempted)), "ratio", fmt.Sprintf("(of %d fleet.Run calls; failed_share = 1 - this)", o.attempted))
		o.add("full_rung_share", 1, "ratio", "(fleet has no degradation ladder)")
	}
	return o, nil
}

// sameFleet compares two fleet results bit for bit and describes the first
// difference.
func sameFleet(a, b *fleet.Result) string {
	if a.TotalCost != b.TotalCost || a.DemandGB != b.DemandGB || a.FinalBaseSpot != b.FinalBaseSpot ||
		a.SlotsSimulated != b.SlotsSimulated || a.Wakes != b.Wakes || a.Solves != b.Solves {
		return fmt.Sprintf("aggregates differ: cost %v/%v demand %v/%v base %v/%v wakes %d/%d",
			a.TotalCost, b.TotalCost, a.DemandGB, b.DemandGB, a.FinalBaseSpot, b.FinalBaseSpot, a.Wakes, b.Wakes)
	}
	for e := range a.Epochs {
		if a.Epochs[e] != b.Epochs[e] {
			return fmt.Sprintf("epoch %d differs: %+v vs %+v", e, a.Epochs[e], b.Epochs[e])
		}
	}
	for i := range a.PerASP {
		if a.PerASP[i] != b.PerASP[i] {
			return fmt.Sprintf("ASP %d differs: %+v vs %+v", i, a.PerASP[i], b.PerASP[i])
		}
	}
	return ""
}

// matchesPolling holds the event engine to the polling oracle: integer
// counters exactly, float costs to rounding (the engines sum in different
// orders).
func matchesPolling(ev, pl *fleet.Result) string {
	if ev.Wakes != pl.Wakes || ev.Solves != pl.Solves || ev.FinalBaseSpot != pl.FinalBaseSpot {
		return fmt.Sprintf("wakes %d/%d solves %d/%d base %v/%v", ev.Wakes, pl.Wakes, ev.Solves, pl.Solves, ev.FinalBaseSpot, pl.FinalBaseSpot)
	}
	for e := range ev.Epochs {
		if ev.Epochs[e] != pl.Epochs[e] {
			return fmt.Sprintf("epoch %d: %+v vs %+v", e, ev.Epochs[e], pl.Epochs[e])
		}
	}
	for i := range ev.PerASP {
		a, b := ev.PerASP[i], pl.PerASP[i]
		if a.SpotSlots != b.SpotSlots || a.OnDemandSlots != b.OnDemandSlots || a.Wakes != b.Wakes || a.Solves != b.Solves ||
			relErr(a.Cost, b.Cost) > 1e-9 || relErr(a.DemandGB, b.DemandGB) > 1e-9 {
			return fmt.Sprintf("ASP %d: %+v vs %+v", i, a, b)
		}
	}
	if relErr(ev.TotalCost, pl.TotalCost) > 1e-9 {
		return fmt.Sprintf("total cost %v vs %v", ev.TotalCost, pl.TotalCost)
	}
	return ""
}

// traceFleet runs fleet.Run once under spans, with telemetry on, and
// replays each epoch's market feed at the base level the run reported.
func traceFleet(cfg runConfig, o *outcome, base fleet.Config) (*fleet.Result, error) {
	rec := newRecorder()
	tel := fleet.NewTelemetry(metrics.NewRegistry())
	c := base
	c.Telemetry = tel
	root := rec.begin("fleet.Run", -1, 0)
	ep := rec.begin("fleet.epoch", root, 0)
	c.OnEpoch = func(rep fleet.EpochReport) {
		rec.end(ep)
		ep = rec.begin("fleet.epoch", root, 0)
	}
	res, err := fleet.Run(&c)
	rec.end(ep)
	rec.spans = rec.spans[:len(rec.spans)-1] // the span opened after the last epoch
	rec.end(root)
	if err != nil {
		return nil, err
	}
	var epochMS []float64
	for _, d := range rec.durations("fleet.epoch") {
		epochMS = append(epochMS, ms(d))
	}
	o.layer("fleet.epoch_ms_p50", quantile(append([]float64(nil), epochMS...), 0.5), fmt.Sprintf("(of %d epochs)", len(epochMS)))
	o.layer("fleet.epoch_ms_max", quantile(epochMS, 1), fmt.Sprintf("(of %d epochs)", len(epochMS)))
	o.layer("fleet.wake_fraction", ratio(float64(res.Wakes), float64(res.SlotsSimulated)), fmt.Sprintf("(of %d ASP-slots)", res.SlotsSimulated))
	maxW, sumW := 0.0, 0.0
	for s := 0; s < c.Shards; s++ {
		w := tel.ShardWakes.With(fmt.Sprint(s)).Value()
		sumW += w
		if w > maxW {
			maxW = w
		}
	}
	o.layer("fleet.shard_wake_imbalance", ratio(maxW, sumW/float64(c.Shards)), fmt.Sprintf("(largest of %d shards over their mean)", c.Shards))

	// The market feed of every epoch, as fleet.RunCtx computes it serially.
	for e, rep := range res.Epochs {
		s := rec.begin("market.epoch_feed", -1, e)
		g, err := market.NewGenerator(c.Class, c.Seed+int64(e)*fleetEpochSeedStride)
		if err != nil {
			return nil, err
		}
		g.Cfg.BaseSpot = rep.BaseSpot
		if _, _, err := g.Trace((c.EpochHours+23)/24).HourlyChanges(0, c.EpochHours); err != nil {
			return nil, err
		}
		rec.end(s)
	}
	o.layer("market.epoch_feed_ms", rec.medianMS("market.epoch_feed"), fmt.Sprintf("(median of %d epochs)", len(res.Epochs)))
	o.note("trace: fleet.Run %.3f s for %d ASP-slots; %d planner solves (lite planner: no solver layer runs)",
		rec.spans[root].dur().Seconds(), res.SlotsSimulated, res.Solves)
	path, err := rec.write(cfg.out+"/traces", fmt.Sprintf("fleet-seed%d.jsonl", cfg.seed))
	if err != nil {
		return nil, err
	}
	o.note("trace: %d spans written to %s", len(rec.spans), path)
	return res, nil
}
