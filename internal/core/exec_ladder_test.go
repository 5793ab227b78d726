package core

import (
	"context"
	"math"
	"testing"
	"time"

	"rentplan/internal/benders"
	"rentplan/internal/core/faults"
	"rentplan/internal/market"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

func isFiniteNonNeg(v float64) bool { return isFinite(v) && v >= 0 }

// TestFaultInjectionWeekLongStochastic runs a week of rolling-horizon
// stochastic execution under a tight planning budget with injected stalls
// and cancellations. The run must complete, every realised cost must stay
// finite and non-negative, and the degradation ladder must be visible in the
// outcome: stalled/canceled re-plans degrade to the expected-price DP while
// healthy slots stay at the full rung.
func TestFaultInjectionWeekLongStochastic(t *testing.T) {
	const T = 168 // one week of hourly slots
	cfg := execFixture(t, market.C1Medium, T, 3)
	cfg.Replan = 1
	cfg.Budget = 50 * time.Millisecond
	cfg.Faults = faults.New(7, faults.Config{StallEvery: 5, CancelEvery: 7})
	bids := constants(T, stats.Mean(cfg.Base.Values))

	out, err := RunStochastic(cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	if !isFiniteNonNeg(out.Cost) {
		t.Fatalf("realised cost %v not finite non-negative", out.Cost)
	}
	for name, v := range map[string]float64{
		"compute":      out.Breakdown.Compute,
		"holding":      out.Breakdown.Holding,
		"transfer-in":  out.Breakdown.TransferIn,
		"transfer-out": out.Breakdown.TransferOut,
	} {
		if !isFiniteNonNeg(v) {
			t.Fatalf("%s cost %v not finite non-negative", name, v)
		}
	}
	if out.Replans != T {
		t.Fatalf("replans = %d, want %d (stride 1)", out.Replans, T)
	}
	if len(out.Degradations) == 0 {
		t.Fatal("no degradations recorded despite injected faults")
	}
	// Every 5th and 7th re-plan is faulted; the rest should plan at the full
	// rung, so degradations must be a strict minority.
	if len(out.Degradations) >= out.Replans/2 {
		t.Fatalf("%d of %d replans degraded: healthy slots did not stay on the full rung",
			len(out.Degradations), out.Replans)
	}
	sawDP := false
	for _, d := range out.Degradations {
		if d.Slot < 0 || d.Slot >= T {
			t.Fatalf("degradation slot %d outside horizon", d.Slot)
		}
		if d.Rung == RungFull {
			t.Fatalf("slot %d recorded a degradation at RungFull", d.Slot)
		}
		if d.Rung == RungDP {
			sawDP = true
		}
	}
	if !sawDP {
		t.Fatal("no RungDP degradation: stalled re-plans should fall back to the expected-price DP")
	}
}

// TestBudgetWithoutFaultsIsTransparent arms the ladder with a generous
// budget and no faults: every re-plan must stay at the full rung and the
// outcome must match the unbudgeted run exactly.
func TestBudgetWithoutFaultsIsTransparent(t *testing.T) {
	const T = 48
	plain := execFixture(t, market.C1Medium, T, 9)
	plain.Replan = 1
	budgeted := execFixture(t, market.C1Medium, T, 9)
	budgeted.Replan = 1
	budgeted.Budget = 10 * time.Second
	bids := constants(T, stats.Mean(plain.Base.Values))

	a, err := RunStochastic(plain, bids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStochastic(budgeted, bids)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Degradations) != 0 {
		t.Fatalf("budgeted run degraded %d times with a 10s budget", len(b.Degradations))
	}
	if a.Cost != b.Cost || a.RentSlots != b.RentSlots || a.Replans != b.Replans {
		t.Fatalf("budgeted run diverged: cost %v vs %v, rent %d vs %d, replans %d vs %d",
			b.Cost, a.Cost, b.RentSlots, a.RentSlots, b.Replans, a.Replans)
	}
}

// TestMatchChildBidBoundary pins the realised-price-equals-bid boundary: the
// paper's auction (Eq. 10) serves the instance whenever the bid is at least
// the spot price, so equality must resolve in bid — matching the kept child,
// never the out-of-bid one.
func TestMatchChildBidBoundary(t *testing.T) {
	// Root with two children: a kept state priced at the bid and an
	// out-of-bid state.
	tr := &scenario.Tree{
		Parent:   []int{-1, 0, 0},
		Prob:     []float64{1, 0.7, 0.3},
		Stage:    []int{0, 1, 1},
		Price:    []float64{0.04, 0.05, 0.12},
		OutOfBid: []bool{false, false, true},
	}
	cases := []struct {
		name        string
		actual, bid float64
		want        int
	}{
		{"bid above price: in bid", 0.045, 0.05, 1},
		{"bid equals price: still in bid (Eq. 10 ties serve)", 0.05, 0.05, 1},
		{"bid below price: out of bid", 0.0500001, 0.05, 2},
	}
	for _, tc := range cases {
		if got := matchChild(tr, 0, tc.actual, tc.bid); got != tc.want {
			t.Errorf("%s: matchChild(actual=%v, bid=%v) = %d, want %d",
				tc.name, tc.actual, tc.bid, got, tc.want)
		}
	}
}

func TestParamsValidateRejectsNonFinite(t *testing.T) {
	T := 4
	prices := constants(T, 0.05)
	dem := constants(T, 0.4)
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"NaN Phi", func(p *Params) { p.Phi = math.NaN() }},
		{"Inf Phi", func(p *Params) { p.Phi = math.Inf(1) }},
		{"NaN Epsilon", func(p *Params) { p.Epsilon = math.NaN() }},
		{"Inf Epsilon", func(p *Params) { p.Epsilon = math.Inf(1) }},
		{"NaN transfer-in price", func(p *Params) { p.Pricing.TransferInPerGB = math.NaN() }},
		{"Inf storage price", func(p *Params) { p.Pricing.StoragePerGBHour = math.Inf(1) }},
		{"NaN consumption rate", func(p *Params) { p.ConsumptionRate = math.NaN() }},
		{"Inf capacity entry", func(p *Params) {
			p.ConsumptionRate = 1
			p.Capacity = []float64{1, math.Inf(1), 1, 1}
		}},
	}
	for _, tc := range cases {
		par := DefaultParams(market.C1Medium)
		tc.mutate(&par)
		if _, err := SolveDRRP(par, prices, dem); err == nil {
			t.Errorf("%s: SolveDRRP accepted the non-finite parameter", tc.name)
		}
	}
	// Control: the untouched parameters must pass.
	if _, err := SolveDRRP(DefaultParams(market.C1Medium), prices, dem); err != nil {
		t.Fatalf("control solve failed: %v", err)
	}
}

func TestExecConfigValidateRejectsNonFinite(t *testing.T) {
	mk := func() *ExecConfig {
		return &ExecConfig{
			Par:    DefaultParams(market.C1Medium),
			Actual: constants(4, 0.05),
			Demand: constants(4, 0.4),
		}
	}
	cases := []struct {
		name   string
		mutate func(*ExecConfig)
	}{
		{"NaN price", func(c *ExecConfig) { c.Actual[2] = math.NaN() }},
		{"Inf price", func(c *ExecConfig) { c.Actual[0] = math.Inf(1) }},
		{"NaN demand", func(c *ExecConfig) { c.Demand[1] = math.NaN() }},
		{"Inf demand", func(c *ExecConfig) { c.Demand[3] = math.Inf(1) }},
	}
	for _, tc := range cases {
		cfg := mk()
		tc.mutate(cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: validate accepted the non-finite series entry", tc.name)
		}
		if _, err := RunOnDemand(cfg); err == nil {
			t.Errorf("%s: RunOnDemand accepted the non-finite series entry", tc.name)
		}
	}
	if err := mk().validate(); err != nil {
		t.Fatalf("control config failed validation: %v", err)
	}
}

// TestCoreCtxCancellationPropagates sweeps the ctx-taking core entry points
// with an already-canceled context: every one must fail fast with an error
// instead of planning.
func TestCoreCtxCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	par := DefaultParams(market.C1Medium)
	prices := constants(4, 0.05)
	dem := constants(4, 0.4)
	tr := &scenario.Tree{
		Parent:   []int{-1, 0, 0},
		Prob:     []float64{1, 0.5, 0.5},
		Stage:    []int{0, 1, 1},
		Price:    []float64{0.04, 0.05, 0.12},
		OutOfBid: []bool{false, false, true},
	}
	if _, err := SolveDRRPCtx(ctx, par, prices, dem); err == nil {
		t.Error("SolveDRRPCtx ignored the canceled context")
	}
	if _, err := SolveSRRPCtx(ctx, par, tr, dem[:2]); err == nil {
		t.Error("SolveSRRPCtx ignored the canceled context")
	}
	if _, err := SolveSRRPVertexDemandsCtx(ctx, par, tr, constants(3, 0.4)); err == nil {
		t.Error("SolveSRRPVertexDemandsCtx ignored the canceled context")
	}
	if _, err := SolveSRRPCVaRCtx(ctx, par, tr, dem[:2], 0.5, 0.9); err == nil {
		t.Error("SolveSRRPCVaRCtx ignored the canceled context")
	}
	if _, _, err := SolveSRRPNestedLShapedCtx(ctx, par, tr, dem[:2], benders.NestedOptions{}); err == nil {
		t.Error("SolveSRRPNestedLShapedCtx ignored the canceled context")
	}
}
