package experiments

import (
	"fmt"

	"rentplan/internal/arima"
	"rentplan/internal/market"
	"rentplan/internal/stats"
	"rentplan/internal/timeseries"
)

// Fig3Row is one box of the Fig. 3 box-and-whisker diagram.
type Fig3Row struct {
	Class      market.VMClass
	Summary    stats.FiveNum
	OutlierPct float64
	Events     int
}

// Fig3BoxWhisker summarises the raw spot-price update series of every class
// with 1.5·IQR whiskers, reproducing Fig. 3. The paper's observation: more
// powerful classes show more price dynamics, yet outliers stay below 3% of
// the data even for c1.xlarge.
func Fig3BoxWhisker(cfg *Config) ([]Fig3Row, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var rows []Fig3Row
	for _, class := range market.AllClasses() {
		tr, ok := cfg.Traces[class]
		if !ok {
			continue
		}
		vals := tr.Events.Values()
		f := stats.BoxWhisker(vals)
		rows = append(rows, Fig3Row{
			Class:      class,
			Summary:    f,
			OutlierPct: 100 * f.OutlierFrac(),
			Events:     len(vals),
		})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: no classes available")
	}
	return rows, nil
}

// Fig4Result is the daily update-frequency profile of Fig. 4.
type Fig4Result struct {
	Class    market.VMClass
	Counts   []int
	Min, Max int
	Mean     float64
}

// Fig4UpdateFrequency counts spot-price update events per day for
// linux-c1-medium, reproducing Fig. 4's "unequally spaced with inconsistent
// sampling interval" observation.
func Fig4UpdateFrequency(cfg *Config) (*Fig4Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr, ok := cfg.Traces[market.C1Medium]
	if !ok {
		return nil, fmt.Errorf("experiments: c1.medium trace missing")
	}
	counts := tr.Events.DailyUpdateCounts(0, tr.Days)
	res := &Fig4Result{Class: market.C1Medium, Counts: counts}
	if len(counts) == 0 {
		return nil, fmt.Errorf("experiments: empty trace")
	}
	res.Min, res.Max = counts[0], counts[0]
	sum := 0
	for _, c := range counts {
		if c < res.Min {
			res.Min = c
		}
		if c > res.Max {
			res.Max = c
		}
		sum += c
	}
	res.Mean = float64(sum) / float64(len(counts))
	return res, nil
}

// Fig5Result is the Fig. 5 histogram/normality study of the selected
// two-month window.
type Fig5Result struct {
	Class       market.VMClass
	WindowHours int
	Mean, SD    float64
	Hist        *stats.Histogram
	// Density and NormalFit are evaluated at each histogram bin centre.
	Density, NormalFit []float64
	Shapiro            stats.TestResult
	JarqueBera         stats.TestResult
}

// Fig5Histogram reproduces Fig. 5: the histogram and kernel density of the
// selected window against a fitted normal curve, with the Shapiro–Wilk test
// that rejects normality.
func Fig5Histogram(cfg *Config, evalDay int) (*Fig5Result, error) {
	hist, _, err := cfg.hourlyWindow(market.C1Medium, evalDay)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Class: market.C1Medium, WindowHours: len(hist)}
	res.Mean = stats.Mean(hist)
	res.SD = stats.StdDev(hist)
	res.Hist, err = stats.NewHistogram(hist, 24)
	if err != nil {
		return nil, err
	}
	at := make([]float64, len(res.Hist.Counts))
	for i := range at {
		at[i] = res.Hist.BinCenter(i)
	}
	res.Density = stats.KDE(hist, at, 0)
	res.NormalFit = make([]float64, len(at))
	for i, x := range at {
		z := (x - res.Mean) / res.SD
		res.NormalFit[i] = stats.NormalPDF(z) / res.SD
	}
	sample := hist
	if len(sample) > 5000 {
		sample = sample[:5000]
	}
	res.Shapiro, err = stats.ShapiroWilk(sample)
	if err != nil {
		return nil, err
	}
	res.JarqueBera, err = stats.JarqueBera(sample)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig6Result is the Fig. 6 seasonal decomposition of the selected window.
type Fig6Result struct {
	Decomp           *timeseries.Decomposition
	SeasonalStrength float64
	TrendStrength    float64
	Stationary       bool
}

// Fig6Decomposition reproduces Fig. 6: trend/seasonal/remainder
// decomposition with period 24 showing a mild cyclic pattern and no clear
// trend, plus the stationarity check that justifies d = 0.
func Fig6Decomposition(cfg *Config, evalDay int) (*Fig6Result, error) {
	hist, _, err := cfg.hourlyWindow(market.C1Medium, evalDay)
	if err != nil {
		return nil, err
	}
	d, err := timeseries.Decompose(hist, 24)
	if err != nil {
		return nil, err
	}
	// The paper trims 1.5·IQR outliers before the time-series analysis; the
	// stationarity check follows suit so isolated price spikes do not mask
	// the absence of a trend.
	return &Fig6Result{
		Decomp:           d,
		SeasonalStrength: d.SeasonalStrength(),
		TrendStrength:    d.TrendStrength(),
		Stationary:       timeseries.IsWeaklyStationary(stats.TrimOutliers(hist), 0.5),
	}, nil
}

// Fig7Result holds the correlograms of Fig. 7.
type Fig7Result struct {
	ACF, PACF []float64
	Band      float64 // 95% white-noise confidence limit
	// SignificantLags lists lags (≥1) whose ACF exceeds the band, e.g.
	// lag 3 in the paper's series.
	SignificantLags []int
	MaxAbsACF       float64 // over lags ≥ 1
}

// Fig7ACFPACF reproduces Fig. 7: the selected series has some correlation
// with its past (certain lags exceed the 95% limit) but far from perfect
// correlation.
func Fig7ACFPACF(cfg *Config, evalDay int, maxLag int) (*Fig7Result, error) {
	hist, _, err := cfg.hourlyWindow(market.C1Medium, evalDay)
	if err != nil {
		return nil, err
	}
	if maxLag <= 0 {
		maxLag = 30 // 1.25 seasonal periods, like the paper's x-axis
	}
	acf, err := timeseries.ACF(hist, maxLag)
	if err != nil {
		return nil, err
	}
	pacf, err := timeseries.PACF(hist, maxLag)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{ACF: acf, PACF: pacf, Band: timeseries.ConfidenceBand(len(hist))}
	for k := 1; k < len(acf); k++ {
		if acf[k] > res.Band {
			res.SignificantLags = append(res.SignificantLags, k)
		}
		if a := abs(acf[k]); a > res.MaxAbsACF {
			res.MaxAbsACF = a
		}
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Fig8Result is the day-ahead forecasting study of Fig. 8.
type Fig8Result struct {
	Spec             arima.Spec
	AIC              float64
	Past48           []float64 // trailing history shown in the plot
	Predicted        []float64 // 24 hourly predictions
	Actual           []float64 // realised prices of the validation day
	HistMean         float64   // the "average price line"
	MSPESarima       float64
	MSPEMeanForecast float64
	// Improvement is 1 − MSPE(SARIMA)/MSPE(mean): the paper's conclusion is
	// that this is barely positive ("only slightly better").
	Improvement float64
}

// Fig8Forecast reproduces Fig. 8: a SARIMA day-ahead forecast of the
// validation day versus the actual prices, compared against the naive
// expected-mean prediction. searchOrders enables a small AIC-driven order
// search (slower); otherwise the paper's best-fit SARIMA(2,0,1)×(2,0,0)₂₄
// is estimated directly.
func Fig8Forecast(cfg *Config, evalDay int, searchOrders bool) (*Fig8Result, error) {
	hist, eval, err := cfg.hourlyWindow(market.C1Medium, evalDay)
	if err != nil {
		return nil, err
	}
	var model *arima.Model
	if searchOrders {
		best, _, err := arima.AutoFit(hist, arima.AutoOptions{
			MaxP: 2, MaxQ: 2, MaxSP: 2, Period: 24, WithMean: true,
		})
		if err != nil {
			return nil, err
		}
		model = best
	} else {
		model, err = arima.Fit(hist, arima.Spec{P: 2, Q: 1, SP: 2, Period: 24, WithMean: true})
		if err != nil {
			return nil, err
		}
	}
	fc, err := model.Forecast(24)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		Spec:      model.Spec,
		AIC:       model.AIC,
		Past48:    append([]float64(nil), hist[len(hist)-48:]...),
		Predicted: fc.Mean,
		Actual:    append([]float64(nil), eval[:24]...),
		HistMean:  stats.Mean(hist),
	}
	res.MSPESarima = arima.MSPE(res.Predicted, res.Actual)
	res.MSPEMeanForecast = arima.MSPE(arima.MeanForecast(hist, 24), res.Actual)
	if res.MSPEMeanForecast > 0 {
		res.Improvement = 1 - res.MSPESarima/res.MSPEMeanForecast
	}
	return res, nil
}
