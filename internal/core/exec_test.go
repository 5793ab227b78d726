package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"rentplan/internal/demand"
	"rentplan/internal/market"
	"rentplan/internal/stats"
)

// syntheticTrace builds a deterministic "actual" spot series fluctuating
// around base with a couple of spikes, plus a matching base distribution.
func syntheticTrace(T int, base float64) ([]float64, stats.Discrete) {
	actual := make([]float64, T)
	hist := make([]float64, 0, 200)
	pat := []float64{0, 1, -1, 2, 0, -2, 1, 0, -1, 3}
	for t := 0; t < T; t++ {
		actual[t] = base + 0.001*pat[t%len(pat)]
	}
	for i := 0; i < 200; i++ {
		hist = append(hist, base+0.001*pat[i%len(pat)])
	}
	return actual, stats.NewDiscreteFromSamples(hist, 1e-4)
}

func execFixture(t *testing.T, class market.VMClass, T int, seed int64) *ExecConfig {
	t.Helper()
	g, err := market.NewGenerator(class, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Trace(90)
	hourly, err := tr.Hourly(0, 90*24)
	if err != nil {
		t.Fatal(err)
	}
	hist := hourly[:60*24]
	return &ExecConfig{
		Par:        DefaultParams(class),
		Actual:     hourly[60*24 : 60*24+T],
		Demand:     demand.Series(demand.NewTruncNormal(0.4, 0.2, seed), T),
		Base:       stats.NewDiscreteFromSamples(hist, 1e-3),
		TreeStages: 5,
		MaxBranch:  4,
	}
}

func TestOracleIsCheapestPolicy(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := execFixture(t, market.M1Large, 24, seed)
		bids := constants(24, stats.Mean(cfg.Base.Values))
		oracle, err := RunOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func() (*Outcome, error){
			"on-demand": func() (*Outcome, error) { return RunOnDemand(cfg) },
			"det":       func() (*Outcome, error) { return RunDeterministic(cfg, bids) },
			"sto":       func() (*Outcome, error) { return RunStochastic(cfg, bids) },
		} {
			o, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if o.Cost < oracle.Cost-1e-6 {
				t.Fatalf("seed %d: %s cost %v beats oracle %v", seed, name, o.Cost, oracle.Cost)
			}
		}
	}
}

func TestPolicyOrderingAveraged(t *testing.T) {
	// The Fig. 12(a) shape: averaged over evaluation windows, on-demand
	// overpays most, the DRRP spot policy sits in between, and the SRRP
	// policy is closest to the oracle.
	var odSum, detSum, stoSum, oracleSum float64
	for seed := int64(1); seed <= 6; seed++ {
		cfg := execFixture(t, market.C1Medium, 24, seed*17)
		bid := stats.Mean(cfg.Base.Values)
		bids := constants(24, bid)
		oracle, err := RunOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		od, err := RunOnDemand(cfg)
		if err != nil {
			t.Fatal(err)
		}
		det, err := RunDeterministic(cfg, bids)
		if err != nil {
			t.Fatal(err)
		}
		sto, err := RunStochastic(cfg, bids)
		if err != nil {
			t.Fatal(err)
		}
		oracleSum += oracle.Cost
		odSum += od.Cost
		detSum += det.Cost
		stoSum += sto.Cost
	}
	if !(stoSum < detSum && detSum < odSum) {
		t.Fatalf("ordering violated: sto=%v det=%v od=%v", stoSum, detSum, odSum)
	}
	if stoSum < oracleSum-1e-6 {
		t.Fatalf("sto %v beats oracle %v", stoSum, oracleSum)
	}
}

func TestOnDemandNeverOutOfBid(t *testing.T) {
	cfg := execFixture(t, market.M1XLarge, 24, 5)
	o, err := RunOnDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.OutOfBidSlots != 0 {
		t.Fatalf("on-demand policy reported %d OOB slots", o.OutOfBidSlots)
	}
	// Its compute cost is exactly λ per rented slot.
	lambda := cfg.Par.Pricing.OnDemand[market.M1XLarge]
	if math.Abs(o.Breakdown.Compute-float64(o.RentSlots)*lambda) > 1e-9 {
		t.Fatalf("compute %v != %d·λ", o.Breakdown.Compute, o.RentSlots)
	}
}

func TestDeterministicLowBidAlwaysOutOfBid(t *testing.T) {
	cfg := execFixture(t, market.C1Medium, 24, 6)
	bids := constants(24, 1e-9+0.001) // below any realistic spot
	o, err := RunDeterministic(cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	if o.RentSlots == 0 {
		t.Fatal("policy never rented")
	}
	if o.OutOfBidSlots != o.RentSlots {
		t.Fatalf("OOB %d of %d rented; hopeless bid must always lose", o.OutOfBidSlots, o.RentSlots)
	}
	// Every rented slot paid λ.
	lambda := cfg.Par.Pricing.OnDemand[market.C1Medium]
	if math.Abs(o.Breakdown.Compute-float64(o.RentSlots)*lambda) > 1e-9 {
		t.Fatalf("compute %v != rented·λ", o.Breakdown.Compute)
	}
}

func TestStochasticRootNeverOutOfBidWithSlotReplanning(t *testing.T) {
	cfg := execFixture(t, market.C1Medium, 24, 7)
	cfg.Replan = 1
	bids := constants(24, stats.Mean(cfg.Base.Values))
	o, err := RunStochastic(cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	// Replanning every slot executes only root decisions, whose price is
	// known — no out-of-bid events can occur.
	if o.OutOfBidSlots != 0 {
		t.Fatalf("OOB slots %d with per-slot replanning", o.OutOfBidSlots)
	}
}

func TestStochasticReplanStride(t *testing.T) {
	cfg := execFixture(t, market.C1Medium, 24, 8)
	bids := constants(24, stats.Mean(cfg.Base.Values))
	for _, stride := range []int{1, 3, 6} {
		cfg.Replan = stride
		o, err := RunStochastic(cfg, bids)
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		if o.Cost <= 0 {
			t.Fatalf("stride %d: nonpositive cost", stride)
		}
	}
}

func TestExecuteEnforcesDemand(t *testing.T) {
	// A policy that never produces: the executor's emergency correction
	// must still satisfy every slot's demand and charge for it.
	actual, base := syntheticTrace(12, 0.06)
	cfg := &ExecConfig{
		Par:    DefaultParams(market.C1Medium),
		Actual: actual,
		Demand: constants(12, 0.5),
		Base:   base,
	}
	o, err := execute(cfg, func(t int, inv float64) decision { return decision{} })
	if err != nil {
		t.Fatal(err)
	}
	if o.RentSlots != 12 {
		t.Fatalf("rented %d, want 12", o.RentSlots)
	}
	// Emergency production per slot equals demand: JIT cost structure.
	wantIn := cfg.Par.UnitGenCost() * 0.5 * 12
	if math.Abs(o.Breakdown.TransferIn-wantIn) > 1e-9 {
		t.Fatalf("transfer-in %v, want %v", o.Breakdown.TransferIn, wantIn)
	}
	if o.Breakdown.Holding != 0 {
		t.Fatalf("holding %v, want 0", o.Breakdown.Holding)
	}
}

func TestExecConfigValidation(t *testing.T) {
	good := &ExecConfig{
		Par:    DefaultParams(market.C1Medium),
		Actual: []float64{0.06},
		Demand: []float64{0.4},
	}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*ExecConfig{
		{Par: DefaultParams(market.C1Medium)},
		{Par: DefaultParams(market.C1Medium), Actual: []float64{0.06}, Demand: []float64{1, 2}},
		{Par: DefaultParams(market.C1Medium), Actual: []float64{-1}, Demand: []float64{1}},
		{Par: DefaultParams(market.C1Medium), Actual: []float64{1}, Demand: []float64{-1}},
		{Par: DefaultParams("zzz"), Actual: []float64{1}, Demand: []float64{1}},
	}
	for i, c := range cases {
		if err := c.validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	// Policy entry points propagate validation failures.
	if _, err := RunOracle(cases[0]); err == nil {
		t.Error("RunOracle accepted bad config")
	}
	if _, err := RunDeterministic(good, nil); err == nil {
		t.Error("RunDeterministic accepted bad bids")
	}
	if _, err := RunStochastic(good, []float64{1}); err == nil {
		t.Error("RunStochastic accepted empty base")
	}
}

func TestBidPrecisionErrorGrowsWithDeviation(t *testing.T) {
	// Fig. 12(b): SRRP cost deviation from the perfect-bid baseline grows
	// as artificial bids deviate from the actual realisations.
	cfg := execFixture(t, market.C1Medium, 24, 9)
	baselineBids := append([]float64(nil), cfg.Actual...)
	baseline, err := RunStochastic(cfg, baselineBids)
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(delta float64) float64 {
		bids := make([]float64, len(cfg.Actual))
		for i, a := range cfg.Actual {
			bids[i] = a * (1 + delta)
		}
		o, err := RunStochastic(cfg, bids)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(o.Cost-baseline.Cost) / baseline.Cost
	}
	small := errAt(-0.02)
	large := errAt(-0.10)
	if large+1e-12 < small {
		t.Fatalf("under-bid error should grow: |e(-2%%)|=%v |e(-10%%)|=%v", small, large)
	}
}

// On a trace the bid never loses (bid >= every realised price), the event
// executor's only wake-ups are plan expiries, which land exactly on the
// stride RunStochastic uses with Replan = TreeStages+1. The two executors
// therefore solve the same subproblems from the same states and must agree
// bit for bit.
func TestEventsMatchesStrideOnCrossingFreeTrace(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := execFixture(t, market.C1Medium, 36, seed*7)
		maxP := 0.0
		for _, p := range cfg.Actual {
			maxP = math.Max(maxP, p)
		}
		bids := constants(36, maxP+0.01)
		strideCfg := *cfg
		strideCfg.Replan = cfg.TreeStages + 1
		want, err := RunStochastic(&strideCfg, bids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunStochasticEvents(cfg, bids)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("seed %d: event cost %v != stride cost %v", seed, got.Cost, want.Cost)
		}
		if got.Replans != want.Replans {
			t.Fatalf("seed %d: event replans %d != stride replans %d", seed, got.Replans, want.Replans)
		}
		if got.RentSlots != want.RentSlots || got.OutOfBidSlots != want.OutOfBidSlots {
			t.Fatalf("seed %d: slot counters diverge: %+v vs %+v", seed, got, want)
		}
	}
}

// A bid below the trace's peaks forces regime crossings; each crossing must
// trigger a replan, so the event executor replans strictly more often than
// the crossing-free expiry-only count and never less than once.
func TestEventsReplansOnCrossings(t *testing.T) {
	cfg := execFixture(t, market.C1Medium, 48, 11)
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, p := range cfg.Actual {
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	if hi <= lo {
		t.Skip("degenerate flat trace")
	}
	bids := constants(48, (lo+hi)/2)
	crossings := 0
	for i := 1; i < len(cfg.Actual); i++ {
		if (bids[i] < cfg.Actual[i]) != (bids[i-1] < cfg.Actual[i-1]) {
			crossings++
		}
	}
	if crossings == 0 {
		t.Skip("trace never crosses the midpoint bid")
	}
	out, err := RunStochasticEvents(cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	// Expiry-only wakes are at most ceil(T/(stages+1)); crossings add more.
	expiryOnly := (48 + cfg.TreeStages) / (cfg.TreeStages + 1)
	if out.Replans <= expiryOnly {
		t.Fatalf("replans = %d, want > %d (expiry-only) given %d crossings", out.Replans, expiryOnly, crossings)
	}
	if out.Replans > 48 {
		t.Fatalf("replans = %d exceeds slot count", out.Replans)
	}
}

func TestEventsCancellation(t *testing.T) {
	cfg := execFixture(t, market.C1Medium, 36, 3)
	bids := constants(36, stats.Mean(cfg.Base.Values))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStochasticEventsCtx(ctx, cfg, bids); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestEventsBackgroundMatchesPlain(t *testing.T) {
	cfg := execFixture(t, market.M1Large, 30, 5)
	bids := constants(30, stats.Mean(cfg.Base.Values))
	a, err := RunStochasticEvents(cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStochasticEventsCtx(context.Background(), cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Replans != b.Replans {
		t.Fatalf("ctx variant diverged: %+v vs %+v", a, b)
	}
}

// TestStrideBeyondLookaheadMatchesLookahead pins what a stride longer than
// a plan does: a plan holds decisions for TreeStages+1 slots, and the slot
// past its leaves re-plans, so every longer Replan runs exactly as Replan =
// TreeStages+1, with and without a planning budget.
func TestStrideBeyondLookaheadMatchesLookahead(t *testing.T) {
	const T = 24
	for seed := int64(1); seed <= 3; seed++ {
		for _, L := range []int{0, 2, 5} {
			for _, budget := range []time.Duration{0, 10 * time.Second} {
				cfg := execFixture(t, market.C1Medium, T, seed)
				cfg.TreeStages, cfg.Budget, cfg.Replan = L, budget, L+1
				bids := constants(T, stats.Mean(cfg.Base.Values))
				want, err := RunStochastic(cfg, bids)
				if err != nil {
					t.Fatal(err)
				}
				for _, stride := range []int{L + 2, L + 4, 3*L + 3} {
					cfg.Replan = stride
					got, err := RunStochastic(cfg, bids)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, TreeStages %d, budget %v: Replan %d gave %+v, Replan %d gave %+v",
							seed, L, budget, stride, got, L+1, want)
					}
				}
			}
		}
	}
}

// decodeRolling turns fuzz bytes into an uncapacitated c1.medium run: a
// lookahead of 0-4 stages, a branch cap of 1-4, a stride of 1-8, a budget
// or none, and up to 48 slots of (price, bid, demand), one byte each.
// Prices and bids lie in [0.02, 0.275], around the on-demand rate 0.2, so
// bids lose the auction at times; the base distribution is the trace's own
// prices.
func decodeRolling(data []byte) (cfg *ExecConfig, bids []float64, stride int) {
	if len(data) < 7 {
		return nil, nil, 0
	}
	T := min((len(data)-4)/3, 48)
	cfg = &ExecConfig{
		Par:        DefaultParams(market.C1Medium),
		Actual:     make([]float64, T),
		Demand:     make([]float64, T),
		TreeStages: int(data[0] % 5),
		MaxBranch:  1 + int(data[1]%4),
	}
	if data[3]&1 != 0 {
		cfg.Budget = time.Minute
	}
	bids = make([]float64, T)
	for t := range bids {
		b := data[4+3*t:]
		cfg.Actual[t] = 0.02 + 0.001*float64(b[0])
		bids[t] = 0.02 + 0.001*float64(b[1])
		cfg.Demand[t] = float64(b[2]) / 255
	}
	cfg.Base = stats.NewDiscreteFromSamples(cfg.Actual, 1e-3)
	return cfg, bids, 1 + int(data[2]%8)
}

// replaySteps executes cfg the way a daemon tenant does, with the step API
// alone: a re-plan through PlanStochasticStepCtx when the stride lapses or
// Follow cannot reach the slot, and otherwise the decision of the vertex
// Follow reached.
func replaySteps(t *testing.T, cfg *ExecConfig, bids []float64) *Outcome {
	t.Helper()
	lambda, err := cfg.Par.OnDemandRate()
	if err != nil {
		t.Fatal(err)
	}
	stride := max(cfg.Replan, 1)
	var plan *StochasticPlan
	var start, replans int
	var path []int
	var degs []Degradation
	at := func(k int) (float64, float64) { return cfg.Actual[start+k], bids[start+k] }
	out, err := execute(cfg, func(s int, inv float64) decision {
		k := s - start
		ok := plan != nil && k < stride
		if ok {
			path, ok = plan.Follow(path, k, at)
		}
		if !ok {
			var rung DegradeRung
			var err error
			if plan, rung, err = PlanStochasticStepCtx(context.Background(), cfg, bids, s, inv); err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			replans++
			if rung != RungFull {
				degs = append(degs, Degradation{Slot: s, Rung: rung})
			}
			if plan == nil {
				return justInTime(cfg, s, inv)
			}
			start, path, k = s, []int{0}, 0
		}
		v := path[k]
		if k > 0 && bids[s] < cfg.Actual[s] {
			return decision{rent: plan.Chi[v], alpha: plan.Alpha[v], payRate: lambda, outOfBid: true}
		}
		return decision{rent: plan.Chi[v], alpha: plan.Alpha[v], payRate: cfg.Actual[s]}
	})
	if err != nil {
		t.Fatal(err)
	}
	out.Replans, out.Degradations = replans, degs
	return out
}

// rollingSeed encodes a fuzz input for decodeRolling from a lookahead, a
// branch cap, a stride, a budget flag and T slots of (price, bid, demand)
// bytes.
func rollingSeed(stages, branch, stride, budget byte, T int, slot func(t int) (price, bid, dem byte)) []byte {
	data := []byte{stages, branch - 1, stride - 1, budget}
	for t := 0; t < T; t++ {
		p, b, d := slot(t)
		data = append(data, p, b, d)
	}
	return data
}

// FuzzRollingExecutor holds the rolling-horizon loop to four properties on
// decoded uncapacitated runs:
//
//	(a) a replay from PlanStochasticStepCtx and Follow alone, re-planning
//	    where the daemon's tenants do, reproduces RunStochastic bit for bit;
//	(b) a stride past the plan's TreeStages+1 slots runs as stride
//	    TreeStages+1;
//	(c) with bids that never cross the price, the events executor runs as
//	    stride TreeStages+1;
//	(d) re-plans never outnumber the slots, and every cost is finite and
//	    non-negative.
//
// A failing input is written to testdata/fuzz and replays in every later
// go test run.
func FuzzRollingExecutor(f *testing.F) {
	// Prices swing around a bid of 0.1 (byte 80) every few slots.
	swing := func(t int) (byte, byte, byte) { return byte(50 + 20*(t%5)), 80, byte(40 + 37*t) }
	f.Add(rollingSeed(2, 3, 1, 0, 24, swing))
	f.Add(rollingSeed(0, 2, 3, 1, 12, swing))
	f.Add(rollingSeed(4, 4, 8, 1, 48, swing))
	f.Add(rollingSeed(3, 1, 2, 0, 16, swing))
	f.Add(rollingSeed(1, 2, 5, 0, 30, func(t int) (byte, byte, byte) { return byte(60 + t), 10, 200 }))
	f.Add(rollingSeed(2, 4, 3, 1, 20, func(t int) (byte, byte, byte) { return byte(30 + 7*t), 255, byte(255 - 9*t) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, bids, stride := decodeRolling(data)
		if cfg == nil {
			return
		}
		T, L := len(bids), cfg.TreeStages
		run := func(what string, replan int, events bool, bids []float64) *Outcome {
			t.Helper()
			c := *cfg
			c.Replan = replan
			var out *Outcome
			var err error
			if events {
				out, err = RunStochasticEvents(&c, bids)
			} else {
				out, err = RunStochastic(&c, bids)
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			b := out.Breakdown
			for _, v := range []float64{out.Cost, b.Compute, b.Holding, b.TransferIn, b.TransferOut} {
				if !isFinite(v) || v < 0 {
					t.Fatalf("%s: cost %v in %+v not finite and non-negative", what, v, out)
				}
			}
			if out.Replans < 1 || out.Replans > T {
				t.Fatalf("%s: %d re-plans over %d slots", what, out.Replans, T)
			}
			return out
		}

		got := run("stride", stride, false, bids)
		c := *cfg
		c.Replan = stride
		if replay := replaySteps(t, &c, bids); !reflect.DeepEqual(replay, got) {
			t.Fatalf("stride %d: step replay %+v, RunStochastic %+v", stride, replay, got)
		}

		atLookahead := run("stride L+1", L+1, false, bids)
		if beyond := run("stride past L+1", L+1+stride, false, bids); !reflect.DeepEqual(beyond, atLookahead) {
			t.Fatalf("stride %d: %+v, stride %d: %+v", L+1+stride, beyond, L+1, atLookahead)
		}

		// Keep every slot in slot 0's regime: in bid throughout, or out of
		// bid throughout.
		calm := make([]float64, T)
		for s := range calm {
			if bids[0] >= cfg.Actual[0] {
				calm[s] = max(bids[s], cfg.Actual[s])
			} else {
				calm[s] = min(bids[s], cfg.Actual[s]/2)
			}
		}
		want := run("calm stride L+1", L+1, false, calm)
		if events := run("calm events", 0, true, calm); !reflect.DeepEqual(events, want) {
			t.Fatalf("crossing-free events %+v, stride %d %+v", events, L+1, want)
		}
	})
}
