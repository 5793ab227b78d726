package arima

import (
	"errors"
	"fmt"

	"rentplan/internal/stats"
)

// BacktestConfig controls rolling-origin forecast evaluation: the paper
// "performed various experiments ... each with different time scale of
// prediction (both short-term and long-term)"; this harness systematises
// that study.
type BacktestConfig struct {
	// Spec is the model estimated at every origin.
	Spec Spec
	// Window is the estimation window length (observations). ≤0 uses an
	// expanding window from the series start.
	Window int
	// Horizon is the number of steps forecast from each origin.
	Horizon int
	// Stride advances the origin between evaluations; ≤0 selects Horizon
	// (non-overlapping forecasts).
	Stride int
	// MinOrigin is the first forecast origin; ≤0 selects max(Window, 64).
	MinOrigin int
}

// BacktestResult aggregates rolling-origin accuracy.
type BacktestResult struct {
	// Origins lists the evaluated forecast origins.
	Origins []int
	// ModelMSPE and MeanMSPE hold the per-origin mean squared prediction
	// errors of the fitted model and of the naive mean forecast.
	ModelMSPE, MeanMSPE []float64
	// Failures counts origins where estimation failed (skipped).
	Failures int
}

// AvgModelMSPE returns the mean of ModelMSPE.
func (r *BacktestResult) AvgModelMSPE() float64 { return stats.Mean(r.ModelMSPE) }

// AvgMeanMSPE returns the mean of MeanMSPE.
func (r *BacktestResult) AvgMeanMSPE() float64 { return stats.Mean(r.MeanMSPE) }

// Improvement returns 1 − AvgModelMSPE/AvgMeanMSPE: the fraction of the
// naive forecast's error removed by the model (can be negative).
func (r *BacktestResult) Improvement() float64 {
	m := r.AvgMeanMSPE()
	if m == 0 { //lint:ignore rentlint/floatcmp division guard: only an exactly-zero MSPE makes the ratio undefined
		return 0
	}
	return 1 - r.AvgModelMSPE()/m
}

// WinRate returns the fraction of origins where the model strictly beats
// the mean forecast.
func (r *BacktestResult) WinRate() float64 {
	if len(r.Origins) == 0 {
		return 0
	}
	wins := 0
	for i := range r.Origins {
		if r.ModelMSPE[i] < r.MeanMSPE[i] {
			wins++
		}
	}
	return float64(wins) / float64(len(r.Origins))
}

// Backtest runs rolling-origin evaluation of the spec on xs.
func Backtest(xs []float64, cfg BacktestConfig) (*BacktestResult, error) {
	if cfg.Horizon <= 0 {
		return nil, errors.New("arima: backtest needs a positive horizon")
	}
	stride := cfg.Stride
	if stride <= 0 {
		stride = cfg.Horizon
	}
	origin := cfg.MinOrigin
	if origin <= 0 {
		origin = cfg.Window
		if origin < 64 {
			origin = 64
		}
	}
	if origin >= len(xs)-cfg.Horizon {
		return nil, fmt.Errorf("arima: series too short for backtesting (%d points, first origin %d, horizon %d)",
			len(xs), origin, cfg.Horizon)
	}
	res := &BacktestResult{}
	for ; origin+cfg.Horizon <= len(xs); origin += stride {
		lo := 0
		if cfg.Window > 0 && origin-cfg.Window > 0 {
			lo = origin - cfg.Window
		}
		hist := xs[lo:origin]
		actual := xs[origin : origin+cfg.Horizon]
		m, err := Fit(hist, cfg.Spec)
		if err != nil {
			res.Failures++
			continue
		}
		fc, err := m.Forecast(cfg.Horizon)
		if err != nil {
			res.Failures++
			continue
		}
		res.Origins = append(res.Origins, origin)
		res.ModelMSPE = append(res.ModelMSPE, MSPE(fc.Mean, actual))
		res.MeanMSPE = append(res.MeanMSPE, MSPE(MeanForecast(hist, cfg.Horizon), actual))
	}
	if len(res.Origins) == 0 {
		return nil, errors.New("arima: no backtest origin succeeded")
	}
	return res, nil
}
