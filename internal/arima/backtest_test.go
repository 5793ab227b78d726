package arima

import (
	"math"
	"math/rand"
	"testing"
)

func TestBacktestAR1BeatsMeanShortHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := simulateARMA(rng, 2500, []float64{0.85}, nil, 3, 1)
	r, err := Backtest(xs, BacktestConfig{
		Spec:    Spec{P: 1, WithMean: true},
		Window:  400,
		Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures > len(r.Origins)/10 {
		t.Fatalf("too many failures: %d", r.Failures)
	}
	// One-step AR(1) forecasts remove ~φ² of the variance vs the mean.
	if imp := r.Improvement(); imp < 0.4 {
		t.Fatalf("1-step improvement %v, want > 0.4 for φ=0.85", imp)
	}
	if wr := r.WinRate(); wr < 0.7 {
		t.Fatalf("win rate %v", wr)
	}
}

func TestHorizonStudyImprovementDecays(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	xs := simulateARMA(rng, 3000, []float64{0.8}, nil, 0, 1)
	imp := make(map[int]float64)
	for _, h := range []int{1, 8, 48} {
		r, err := Backtest(xs, BacktestConfig{Spec: Spec{P: 1, WithMean: true}, Window: 500, Horizon: h})
		if err != nil {
			t.Fatalf("horizon %d: %v", h, err)
		}
		imp[h] = r.Improvement()
	}
	i1, i48 := imp[1], imp[48]
	if i1 <= i48 {
		t.Fatalf("short-horizon improvement (%v) should exceed long-horizon (%v)", i1, i48)
	}
	// Long horizons approach the mean forecast: improvement near zero.
	if math.Abs(i48) > 0.25 {
		t.Fatalf("48-step improvement %v, want ≈ 0", i48)
	}
}

func TestBacktestWhiteNoiseNoImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 5 + rng.NormFloat64()
	}
	r, err := Backtest(xs, BacktestConfig{
		Spec:    Spec{P: 1, WithMean: true},
		Window:  300,
		Horizon: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if imp := r.Improvement(); math.Abs(imp) > 0.1 {
		t.Fatalf("white-noise improvement %v, want ≈ 0", imp)
	}
}

func TestBacktestErrors(t *testing.T) {
	xs := make([]float64, 100)
	if _, err := Backtest(xs, BacktestConfig{Spec: Spec{P: 1}, Horizon: 0}); err == nil {
		t.Fatal("want horizon error")
	}
	if _, err := Backtest(xs[:10], BacktestConfig{Spec: Spec{P: 1}, Horizon: 5}); err == nil {
		t.Fatal("want short-series error")
	}
	// A window too small for the spec makes every origin fail.
	if _, err := Backtest(xs, BacktestConfig{Spec: Spec{P: 3, Q: 3}, Horizon: 2, Window: 12, MinOrigin: 90}); err == nil {
		t.Fatal("want all-failed error")
	}
}

func TestBacktestStrideAndExpandingWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	xs := simulateARMA(rng, 800, []float64{0.5}, nil, 0, 1)
	r, err := Backtest(xs, BacktestConfig{
		Spec:    Spec{P: 1},
		Horizon: 2,
		Stride:  100,
		// Window 0: expanding window from the start.
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Origins); i++ {
		if r.Origins[i]-r.Origins[i-1] != 100 {
			t.Fatalf("stride not respected: %v", r.Origins)
		}
	}
	if len(r.ModelMSPE) != len(r.Origins) || len(r.MeanMSPE) != len(r.Origins) {
		t.Fatal("result slice lengths differ")
	}
}
