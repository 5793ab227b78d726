package fleet

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"rentplan/internal/market"
	"rentplan/internal/serve/metrics"
)

func testConfig(t *testing.T, n, shards int) *Config {
	t.Helper()
	pop, err := SamplePopulation(n, market.C1Medium, 42)
	if err != nil {
		t.Fatal(err)
	}
	return &Config{
		Class:      market.C1Medium,
		Population: pop,
		Shards:     shards,
		Epochs:     4,
		EpochHours: 72,
		Feedback:   0.2,
		Seed:       7,
	}
}

func TestSamplePopulation(t *testing.T) {
	pop, err := SamplePopulation(500, market.M1Large, 3)
	if err != nil {
		t.Fatal(err)
	}
	gc, _ := market.DefaultGenConfig(market.M1Large)
	crossable := 0
	for i, a := range pop {
		if a.Bid < gc.Quantum || a.Bid > gc.OnDemandCap {
			t.Fatalf("ASP %d bid %v outside admissible band", i, a.Bid)
		}
		if a.BaseDemand <= 0 || a.DiurnalAmp < 0 || a.DiurnalAmp >= 1 {
			t.Fatalf("ASP %d demand curve invalid: %+v", i, a)
		}
		if a.PlanHorizon < 24 || a.PlanHorizon > 96 {
			t.Fatalf("ASP %d plan horizon %d outside [24,96]", i, a.PlanHorizon)
		}
		if a.Bid < 2*gc.BaseSpot {
			crossable++
		}
	}
	if crossable < 100 {
		t.Fatalf("only %d/500 bids near the base level; traces would never cross them", crossable)
	}
	again, err := SamplePopulation(500, market.M1Large, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop {
		if pop[i] != again[i] {
			t.Fatalf("sampling not deterministic at ASP %d", i)
		}
	}
	// A negative size is an error, and an empty population one that Run
	// rejects.
	if pop, err := SamplePopulation(-1, market.M1Large, 3); pop != nil || err == nil || !strings.Contains(err.Error(), "population size -1") {
		t.Fatalf("SamplePopulation(-1): %d ASPs, err %v; want a population size error", len(pop), err)
	}
	if pop, err := SamplePopulation(0, market.M1Large, 3); len(pop) != 0 || err != nil {
		t.Fatalf("SamplePopulation(0): %d ASPs, err %v; want an empty population", len(pop), err)
	}
}

func TestConfigValidation(t *testing.T) {
	pop, _ := SamplePopulation(4, market.C1Medium, 1)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"empty population", func(c *Config) { c.Population = nil }, "empty population"},
		{"zero shards", func(c *Config) { c.Shards = 0 }, "shards"},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }, "epochs"},
		{"zero hours", func(c *Config) { c.EpochHours = 0 }, "epoch hours"},
		{"negative feedback", func(c *Config) { c.Feedback = -1 }, "feedback"},
		{"nan feedback", func(c *Config) { c.Feedback = math.NaN() }, "feedback"},
		{"bad bid", func(c *Config) { c.Population[2].Bid = math.Inf(1) }, "bid"},
		{"bad amp", func(c *Config) { c.Population[1].DiurnalAmp = 1.5 }, "amplitude"},
		{"bad horizon", func(c *Config) { c.Population[0].PlanHorizon = 0 }, "plan horizon"},
		// With feedback on, a NaN capacity would price epoch 1 from a NaN
		// base.
		{"nan capacity", func(c *Config) { c.Capacity, c.Feedback, c.Epochs = math.NaN(), 0.3, 2 }, "capacity NaN"},
		// The slot count n·Epochs·EpochHours must fit int64: 4·2⁶² wraps
		// to 0 and 3·2⁶² to a negative count.
		{"slot count wraps to zero", func(c *Config) { c.Epochs, c.EpochHours = 1<<62, 1 },
			"4 ASPs × 4611686018427387904 epochs × 1 epoch hours overflows"},
		{"slot count wraps negative", func(c *Config) { c.Population, c.Epochs, c.EpochHours = c.Population[:3], 1<<62, 1 },
			"3 ASPs × 4611686018427387904 epochs × 1 epoch hours overflows"},
		{"epoch hours overflow", func(c *Config) { c.Population, c.EpochHours = c.Population[:2], 1<<62 },
			"2 ASPs × 1 epochs × 4611686018427387904 epoch hours overflows"},
	}
	for _, tc := range cases {
		cfg := &Config{
			Class:      market.C1Medium,
			Population: append([]ASP(nil), pop...),
			Shards:     1, Epochs: 1, EpochHours: 24,
		}
		tc.mut(cfg)
		if res, err := Run(cfg); res != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Run err = %v, want substring %q", tc.name, err, tc.want)
		}
		if res, err := RunPolling(cfg); res != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: RunPolling err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// A slot count of exactly math.MaxInt64 fits, and an infinite capacity
	// means no limit.
	cfg := &Config{Class: market.C1Medium, Population: pop[:1], Shards: 1, Epochs: math.MaxInt64, EpochHours: 1}
	if err := cfg.validate(); err != nil {
		t.Fatalf("1 ASP × MaxInt64 epochs × 1 epoch hour rejected: %v", err)
	}
	for _, c := range []float64{math.Inf(1), math.Inf(-1)} {
		cfg := &Config{Class: market.C1Medium, Population: pop, Shards: 1, Epochs: 2, EpochHours: 24, Feedback: 0.3, Capacity: c}
		if _, err := Run(cfg); err != nil {
			t.Fatalf("capacity %v: %v", c, err)
		}
	}

	// Each ASP field's fused comparison accepts exactly the finite values in
	// its range, and the error names the field.
	special := []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.5, math.Nextafter(1, 0), 1, math.MaxFloat64, math.Inf(1)}
	fields := []struct {
		name string
		set  func(*ASP, float64)
		ok   func(float64) bool
	}{
		{"bid", func(a *ASP, v float64) { a.Bid = v }, func(v float64) bool { return isFinite(v) && v > 0 }},
		{"base demand", func(a *ASP, v float64) { a.BaseDemand = v }, func(v float64) bool { return isFinite(v) && v >= 0 }},
		{"diurnal amplitude", func(a *ASP, v float64) { a.DiurnalAmp = v }, func(v float64) bool { return v >= 0 && v < 1 }},
		{"elasticity", func(a *ASP, v float64) { a.Elasticity = v }, func(v float64) bool { return isFinite(v) && v >= 0 }},
	}
	check := func(a ASP, field string, ok bool) {
		t.Helper()
		cfg := &Config{Population: []ASP{a}, Shards: 1, Epochs: 1, EpochHours: 24}
		err := cfg.validate()
		if (err == nil) != ok {
			t.Fatalf("%+v: validate error %v; want valid %v", a, err, ok)
		}
		if err != nil && !strings.Contains(err.Error(), "ASP 0 "+field) {
			t.Fatalf("%+v: error %q does not name the %s", a, err, field)
		}
	}
	for _, f := range fields {
		for _, v := range special {
			a := pop[0]
			f.set(&a, v)
			check(a, f.name, f.ok(v))
		}
	}
	for _, h := range []int{math.MinInt, -1, 0, 1, math.MaxInt} {
		a := pop[0]
		a.PlanHorizon = h
		check(a, "plan horizon", h >= 1)
	}
}

// The shard count must not change which error a run reports: the
// lowest-index invalid ASP, whichever shard holds it, and ahead of an
// unknown class.
func TestValidationIndependentOfShards(t *testing.T) {
	pop, err := SamplePopulation(10, market.C1Medium, 1)
	if err != nil {
		t.Fatal(err)
	}
	pop[3].DiurnalAmp = math.NaN()
	pop[7].Bid = -1
	const want = "fleet: ASP 3 diurnal amplitude NaN outside [0,1)"
	for _, class := range []market.VMClass{market.C1Medium, "x9.unknown"} {
		for shards := 1; shards <= 4; shards++ {
			cfg := &Config{Class: class, Population: pop, Shards: shards, Epochs: 2, EpochHours: 24}
			_, runErr := Run(cfg)
			_, pollErr := RunPolling(cfg)
			for _, err := range []error{cfg.validate(), runErr, pollErr} {
				if err == nil || err.Error() != want {
					t.Fatalf("class %s, shards=%d: err %v, want %q", class, shards, err, want)
				}
			}
		}
	}
	// With the ASPs valid, the unknown class is the error.
	pop[3].DiurnalAmp, pop[7].Bid = 0.3, 0.05
	for shards := 1; shards <= 4; shards++ {
		cfg := &Config{Class: "x9.unknown", Population: pop, Shards: shards, Epochs: 2, EpochHours: 24}
		_, runErr := Run(cfg)
		_, pollErr := RunPolling(cfg)
		for _, err := range []error{runErr, pollErr} {
			if err == nil || !strings.Contains(err.Error(), `unknown VM class "x9.unknown"`) {
				t.Fatalf("shards=%d: err %v, want the unknown class", shards, err)
			}
		}
	}
}

// The polling baseline is an independently-written oracle: it visits every
// slot of every ASP. The event engine must reproduce it exactly on the
// integer counters (wakes, solves, slot tallies, the whole feedback
// trajectory) and to float rounding on the costs.
func TestEventEngineMatchesPollingOracle(t *testing.T) {
	cfg := testConfig(t, 300, 4)
	ev, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := RunPolling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Wakes != pl.Wakes || ev.Solves != pl.Solves {
		t.Fatalf("wake/solve counts diverge: event %d/%d polling %d/%d", ev.Wakes, ev.Solves, pl.Wakes, pl.Solves)
	}
	if ev.FinalBaseSpot != pl.FinalBaseSpot {
		t.Fatalf("final base spot diverges: event %v polling %v", ev.FinalBaseSpot, pl.FinalBaseSpot)
	}
	for e := range ev.Epochs {
		a, b := ev.Epochs[e], pl.Epochs[e]
		if a != b {
			t.Fatalf("epoch %d reports diverge:\nevent   %+v\npolling %+v", e, a, b)
		}
	}
	for i := range ev.PerASP {
		a, b := ev.PerASP[i], pl.PerASP[i]
		if a.SpotSlots != b.SpotSlots || a.OnDemandSlots != b.OnDemandSlots ||
			a.Wakes != b.Wakes || a.Solves != b.Solves {
			t.Fatalf("ASP %d integer outcomes diverge:\nevent   %+v\npolling %+v", i, a, b)
		}
		if relDiff(a.Cost, b.Cost) > 1e-9 || relDiff(a.DemandGB, b.DemandGB) > 1e-9 {
			t.Fatalf("ASP %d float outcomes diverge:\nevent   %+v\npolling %+v", i, a, b)
		}
	}
	if relDiff(ev.TotalCost, pl.TotalCost) > 1e-9 {
		t.Fatalf("total cost diverges: event %v polling %v", ev.TotalCost, pl.TotalCost)
	}
	// The event engine must actually be event-driven: far fewer wakes than
	// slots simulated.
	if ev.Wakes*4 > ev.SlotsSimulated {
		t.Fatalf("event engine woke %d times over %d ASP-slots; not event-driven", ev.Wakes, ev.SlotsSimulated)
	}
}

func TestFeedbackMovesPrices(t *testing.T) {
	cfg := testConfig(t, 200, 2)
	// Starve capacity so demand pressure must push the base level up.
	cfg.Capacity = float64(len(cfg.Population)) * float64(cfg.EpochHours) / 100
	cfg.Feedback = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gc, _ := market.DefaultGenConfig(cfg.Class)
	if res.FinalBaseSpot <= gc.BaseSpot {
		t.Fatalf("base spot %v did not rise from %v under starved capacity", res.FinalBaseSpot, gc.BaseSpot)
	}
	// And with the loop off the level never moves.
	cfg.Feedback = 0
	res0, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res0.FinalBaseSpot != gc.BaseSpot {
		t.Fatalf("feedback 0 moved base spot to %v", res0.FinalBaseSpot)
	}
	for _, rep := range res0.Epochs {
		if rep.BaseSpot != gc.BaseSpot {
			t.Fatalf("epoch %d priced from %v with feedback off", rep.Epoch, rep.BaseSpot)
		}
	}
}

func TestTelemetry(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := testConfig(t, 120, 3)
	cfg.Telemetry = NewTelemetry(reg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Telemetry.Wakes.Value(); got != float64(res.Wakes) {
		t.Fatalf("wakes counter %v != result %d", got, res.Wakes)
	}
	if got := cfg.Telemetry.Epochs.Value(); got != float64(len(res.Epochs)) {
		t.Fatalf("epochs counter %v != %d", got, len(res.Epochs))
	}
	var shardWakes float64
	for s := 0; s < cfg.Shards; s++ {
		shardWakes += cfg.Telemetry.ShardWakes.With(strconv.Itoa(s)).Value()
	}
	if shardWakes != float64(res.Wakes) {
		t.Fatalf("per-shard wakes %v do not sum to total %d", shardWakes, res.Wakes)
	}
	if got := cfg.Telemetry.EpochSpotSlots.Count(); got != uint64(len(res.Epochs)) {
		t.Fatalf("spot-slot histogram saw %d epochs, want %d", got, len(res.Epochs))
	}
	var epochSlots int64
	for _, rep := range res.Epochs {
		epochSlots += rep.SpotSlots
	}
	if got := cfg.Telemetry.EpochSpotSlots.Sum(); got != float64(epochSlots) {
		t.Fatalf("spot-slot histogram sum %v != %d", got, epochSlots)
	}
}

func TestSRRPPlannerSmoke(t *testing.T) {
	pop, err := SamplePopulation(6, market.C1Medium, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{
		Class:      market.C1Medium,
		Population: pop,
		Shards:     2,
		Epochs:     2,
		EpochHours: 24,
		Feedback:   0.2,
		Seed:       11,
		Planner:    PlannerSRRP,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost <= 0 || res.Solves == 0 {
		t.Fatalf("SRRP fleet produced empty result: %+v", res)
	}
	serial := *cfg
	serial.Shards = 1
	res1, err := Run(&serial)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost != res1.TotalCost {
		t.Fatalf("SRRP shard=2 cost %v != shard=1 cost %v", res.TotalCost, res1.TotalCost)
	}
}

// An ASP the run cannot plan must fail the run by name, instead of
// returning a silently wrong total: a multiplier that overflows fails both
// planners and the polling oracle, and an instance count beyond int64 fails
// the two lite engines (the SRRP planner does not rent by instance count).
// ASP 4 fails too, and its bid sorts first, so a shard that reported the
// first failure it met rather than the lowest index would name ASP 4.
func TestUnplannableASPFails(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mut       func(*ASP)
		srrpFails bool
	}{
		{"multiplier overflows to +Inf", func(a *ASP) { a.Elasticity = 1e6 }, true},
		{"count beyond int64", func(a *ASP) { a.BaseDemand = 1e300 }, false},
	} {
		pop, err := SamplePopulation(5, market.C1Medium, 3)
		if err != nil {
			t.Fatal(err)
		}
		tc.mut(&pop[2])
		tc.mut(&pop[4])
		pop[4].Bid = 1e-6
		cfg := Config{
			Class: market.C1Medium, Population: pop, Shards: 1,
			Epochs: 3, EpochHours: 48, Feedback: 0.3, Seed: 7,
		}
		lite3, srrp := cfg, cfg
		lite3.Shards = 3
		srrp.Planner = PlannerSRRP
		runs := []struct {
			name string
			run  func() (*Result, error)
		}{
			{"lite", func() (*Result, error) { return Run(&cfg) }},
			{"lite, 3 shards", func() (*Result, error) { return Run(&lite3) }},
			{"srrp", func() (*Result, error) { return Run(&srrp) }},
			{"polling", func() (*Result, error) { return RunPolling(&cfg) }},
		}
		for _, r := range runs {
			if r.name == "srrp" && !tc.srrpFails {
				continue
			}
			res, err := r.run()
			if err == nil || !strings.Contains(err.Error(), "ASP 2:") || res != nil {
				t.Errorf("%s, %s: got result %v, err %v; want an error naming ASP 2", tc.name, r.name, res != nil, err)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d
	}
	return d / scale
}
