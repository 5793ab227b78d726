package experiments

import (
	"math"
	"strings"
	"testing"

	"rentplan/internal/market"
)

func quickCfg(t *testing.T) *Config {
	t.Helper()
	cfg, err := QuickConfig(7)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestFig3Shapes(t *testing.T) {
	cfg := quickCfg(t)
	rows, err := Fig3BoxWhisker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	var medByClass = map[market.VMClass]float64{}
	for _, r := range rows {
		if r.OutlierPct > 5 {
			t.Errorf("%s: outliers %.2f%% (paper: trivial share, <3%%)", r.Class, r.OutlierPct)
		}
		if !(r.Summary.Min <= r.Summary.Q1 && r.Summary.Q1 <= r.Summary.Median &&
			r.Summary.Median <= r.Summary.Q3 && r.Summary.Q3 <= r.Summary.Max) {
			t.Errorf("%s: five-number summary out of order: %+v", r.Class, r.Summary)
		}
		medByClass[r.Class] = r.Summary.Median
	}
	// Price ladder: medians increase with class power.
	if !(medByClass[market.C1Medium] < medByClass[market.M1Large] &&
		medByClass[market.M1Large] < medByClass[market.M1XLarge] &&
		medByClass[market.M1XLarge] < medByClass[market.C1XLarge]) {
		t.Errorf("median ladder wrong: %v", medByClass)
	}
}

func TestFig4Variation(t *testing.T) {
	cfg := quickCfg(t)
	r, err := Fig4UpdateFrequency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Max-r.Min < 8 {
		t.Errorf("daily update counts too uniform: min=%d max=%d", r.Min, r.Max)
	}
	if r.Mean <= 0 {
		t.Errorf("mean %v", r.Mean)
	}
}

func TestFig5RejectsNormality(t *testing.T) {
	cfg := quickCfg(t)
	r, err := Fig5Histogram(cfg, cfg.EvalDays[0])
	if err != nil {
		t.Fatal(err)
	}
	if !r.Shapiro.Rejects(0.01) {
		t.Errorf("Shapiro-Wilk failed to reject normality (p=%v)", r.Shapiro.PValue)
	}
	if len(r.Density) != len(r.Hist.Counts) || len(r.NormalFit) != len(r.Hist.Counts) {
		t.Error("density series length mismatch")
	}
	// Histogram totals the window size.
	total := 0
	for _, c := range r.Hist.Counts {
		total += c
	}
	if total != r.WindowHours {
		t.Errorf("histogram total %d != window %d", total, r.WindowHours)
	}
}

func TestFig6MildSeasonalityNoTrend(t *testing.T) {
	cfg := quickCfg(t)
	r, err := Fig6Decomposition(cfg, cfg.EvalDays[0])
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stationary {
		t.Error("window should be weakly stationary (paper uses d=0)")
	}
	if r.SeasonalStrength <= 0 || r.SeasonalStrength > 0.5 {
		t.Errorf("seasonal strength %v: want mild cyclic component", r.SeasonalStrength)
	}
}

func TestFig7WeakButPresentCorrelation(t *testing.T) {
	cfg := quickCfg(t)
	r, err := Fig7ACFPACF(cfg, cfg.EvalDays[0], 30)
	if err != nil {
		t.Fatal(err)
	}
	found3 := false
	for _, l := range r.SignificantLags {
		if l == 3 {
			found3 = true
		}
	}
	if !found3 {
		t.Errorf("lag 3 not significant (paper highlights it): %v", r.SignificantLags)
	}
	if r.MaxAbsACF >= 0.95 {
		t.Errorf("ACF too close to 1 (%v); paper reports weak correlation", r.MaxAbsACF)
	}
}

func TestFig8OnlySlightImprovement(t *testing.T) {
	cfg := quickCfg(t)
	if len(cfg.EvalDays) == 0 {
		t.Fatal("no evaluation days configured")
	}
	mean := 0.0
	for _, d := range cfg.EvalDays {
		r, err := Fig8Forecast(cfg, d, false)
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		mean += r.Improvement
	}
	mean /= float64(len(cfg.EvalDays))
	// "its MSPE is only slightly better than the simple prediction using
	// the expected mean value": averaged improvement clearly below 60%, and
	// not catastrophically negative.
	if mean > 0.6 {
		t.Errorf("SARIMA improves %.0f%% over the mean forecast; paper reports marginal gains", 100*mean)
	}
	if mean < -1.0 {
		t.Errorf("SARIMA catastrophically worse than mean forecast: %v", mean)
	}
}

func TestFig10PaperShape(t *testing.T) {
	cfg := quickCfg(t)
	rows, err := Fig10CostComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for i, r := range rows {
		if r.ReductionPct <= 0 {
			t.Errorf("%s: no cost reduction", r.Class)
		}
		if i > 0 && r.ReductionPct <= rows[i-1].ReductionPct {
			t.Errorf("reduction not increasing with class power: %+v", rows)
		}
		sum := r.ShareCompute + r.ShareHolding + r.ShareTransfer
		if math.Abs(sum-100) > 1e-6 {
			t.Errorf("%s: shares sum to %v", r.Class, sum)
		}
	}
	// m1.xlarge reduction near the paper's "fifty percent drop-off".
	last := rows[len(rows)-1]
	if last.Class != market.M1XLarge || last.ReductionPct < 35 || last.ReductionPct > 70 {
		t.Errorf("m1.xlarge reduction %.1f%%, paper reports ≈49%%", last.ReductionPct)
	}
	// Storage+I/O share grows with class power (paper: "more money is
	// spent on I/O and storage as VM instance becomes more powerful").
	if !(rows[0].ShareHolding < rows[1].ShareHolding && rows[1].ShareHolding < rows[2].ShareHolding) {
		t.Errorf("holding shares not increasing: %+v", rows)
	}
}

func TestFig11PaperShape(t *testing.T) {
	cfg := quickCfg(t)
	r, err := Fig11Sensitivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.BaseRatio <= 0.3 || r.BaseRatio >= 0.95 {
		t.Errorf("base ratio %v; paper reports 0.67", r.BaseRatio)
	}
}

func TestFig12aPaperShape(t *testing.T) {
	cfg := quickCfg(t)
	rows, err := Fig12aOverpay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	if err := Fig12aValidate(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Windows != len(cfg.EvalDays) {
			t.Errorf("%s: %d windows", r.Class, r.Windows)
		}
		for _, p := range Policies() {
			if r.OverpayPct[p] < -1e-9 {
				t.Errorf("%s/%s: negative overpay %v (cannot beat the oracle)", r.Class, p, r.OverpayPct[p])
			}
		}
	}
}

func TestFig12bErrorGrowsWithDeviation(t *testing.T) {
	cfg := quickCfg(t)
	pts, baseline, err := Fig12bBidPrecision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if baseline <= 0 {
		t.Fatalf("baseline %v", baseline)
	}
	if len(pts) != 10 {
		t.Fatalf("points %d", len(pts))
	}
	// Under-bidding: |error| at −10% ≥ |error| at −2%.
	get := func(dev float64) float64 {
		for _, p := range pts {
			if math.Abs(p.DeviationPct-dev) < 1e-9 {
				return p.PercentError
			}
		}
		t.Fatalf("deviation %v missing", dev)
		return 0
	}
	if math.Abs(get(-10)) < math.Abs(get(-2))-1e-9 {
		t.Errorf("under-bid error not growing: %v vs %v", get(-10), get(-2))
	}
	if math.Abs(get(10)) < math.Abs(get(2))-1e-9 {
		t.Errorf("over-bid error not growing: %v vs %v", get(10), get(2))
	}
	// Under-bidding loses auctions → strictly positive cost error.
	if get(-10) <= 0 {
		t.Errorf("deep under-bid should overpay: %v", get(-10))
	}
}

func TestRunAllReport(t *testing.T) {
	cfg := quickCfg(t)
	var sb strings.Builder
	if err := RunAll(cfg, &sb, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
		"Fig. 10", "Fig. 11", "Fig. 12(a)", "Fig. 12(b)",
		"shape check passed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	bad := &Config{}
	if _, err := Fig3BoxWhisker(bad); err == nil {
		t.Error("want validation error")
	}
	cfg := quickCfg(t)
	if _, _, err := cfg.hourlyWindow(market.VMClass("nope"), 60); err == nil {
		t.Error("want unknown class error")
	}
	if _, _, err := cfg.hourlyWindow(market.C1Medium, 10); err == nil {
		t.Error("want out-of-range day error")
	}
	if _, _, err := cfg.hourlyWindow(market.C1Medium, 10000); err == nil {
		t.Error("want out-of-range day error")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Traces) != 4 || len(cfg.EvalDays) < 10 {
		t.Fatalf("default config incomplete: %d traces, %d days", len(cfg.Traces), len(cfg.EvalDays))
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
}
