// Package timeseries implements the time-series machinery of the paper's
// Sec. IV-A spot-price predictability study: conversion of irregular price
// update events into an equally spaced hourly series, daily update-frequency
// profiles, differencing, autocorrelation and partial autocorrelation
// functions with confidence bands, and classical seasonal decomposition.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Event is a single irregular price update: a timestamp in hours from the
// trace origin and the new value effective from that instant.
type Event struct {
	Hour  float64
	Value float64
}

// EventSeries is an irregularly spaced series of update events, sorted by
// time. It mirrors the raw Amazon spot-price change feed.
type EventSeries struct {
	Events []Event
}

// Sorted reports whether events are in nondecreasing time order.
func (es *EventSeries) Sorted() bool {
	return sort.SliceIsSorted(es.Events, func(i, j int) bool {
		return es.Events[i].Hour < es.Events[j].Hour
	})
}

// Sort orders the events by time (stable for equal timestamps, keeping the
// later-appended event last so it wins the "most recent update" rule).
func (es *EventSeries) Sort() {
	sort.SliceStable(es.Events, func(i, j int) bool {
		return es.Events[i].Hour < es.Events[j].Hour
	})
}

// Resample converts the event series into an equally spaced hourly series of
// length n starting at hour start, following the paper's rule: "At the start
// of each hour, the spot price is set to be the most recent updated price in
// the last hour. If no update appears in the last hour, the spot price is
// considered unchanged." Concretely, out[t] is the most recent value at or
// before hour start+t; if no event precedes the window, the value effective
// at the first event's instant is adopted (the last of any duplicate events
// sharing that timestamp, matching Sort's later-appended-wins contract).
func (es *EventSeries) Resample(start float64, n int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("timeseries: resample length must be positive")
	}
	if math.IsNaN(start) || math.IsInf(start, 0) {
		return nil, fmt.Errorf("timeseries: resample start %v is not finite", start)
	}
	if len(es.Events) == 0 {
		return nil, errors.New("timeseries: no events to resample")
	}
	if !es.Sorted() {
		return nil, errors.New("timeseries: events must be sorted; call Sort first")
	}
	out := make([]float64, n)
	// Price effective before the window: last event at or before `start`.
	idx := sort.Search(len(es.Events), func(i int) bool { return es.Events[i].Hour > start })
	var cur float64
	if idx > 0 {
		cur = es.Events[idx-1].Value
	} else {
		// No history yet: adopt the price effective at the first update's
		// instant. With duplicate events at that timestamp, the most recent
		// update (the last in order) is the effective one; adopting the
		// literal first would resurrect a price that was superseded the
		// moment it appeared.
		cur = es.Events[0].Value
		for j := 1; j < len(es.Events) && es.Events[j].Hour == es.Events[0].Hour; j++ { //lint:ignore rentlint/floatcmp duplicate-timestamp detection: only events sharing the exact same update instant are superseded in place
			cur = es.Events[j].Value
		}
	}
	ev := idx
	for t := 0; t < n; t++ {
		mark := start + float64(t)
		for ev < len(es.Events) && es.Events[ev].Hour <= mark {
			cur = es.Events[ev].Value
			ev++
		}
		out[t] = cur
	}
	return out, nil
}

// ResampleChanges resamples like Resample and additionally returns the
// ascending slot indices t (1 ≤ t < n) at which the resampled value differs
// from the previous slot's, of which there are at most min(n−1,
// len(Events)). A price-triggered agent only needs to look at these slots
// (see market.SpotTrace.HourlyChanges).
func (es *EventSeries) ResampleChanges(start float64, n int) ([]float64, []int, error) {
	out, err := es.Resample(start, n)
	if err != nil {
		return nil, nil, err
	}
	var changes []int
	for t := 1; t < n; t++ {
		if out[t] != out[t-1] { //lint:ignore rentlint/floatcmp change detection: resampled values are copied event values, so an unchanged price is bit-identical by construction
			changes = append(changes, t)
		}
	}
	return out, changes, nil
}

// DailyUpdateCounts returns the number of update events in each 24-hour day
// of the trace, over the given number of days from hour start. This is the
// Fig. 4 series.
func (es *EventSeries) DailyUpdateCounts(start float64, days int) []int {
	out := make([]int, days)
	for _, e := range es.Events {
		d := int(math.Floor((e.Hour - start) / 24))
		if d >= 0 && d < days {
			out[d]++
		}
	}
	return out
}

// Values extracts the raw event values (used for the Fig. 3 box-whisker
// study, which works on the un-resampled update series).
func (es *EventSeries) Values() []float64 {
	v := make([]float64, len(es.Events))
	for i, e := range es.Events {
		v[i] = e.Value
	}
	return v
}

// Diff returns the d-th difference of xs (length shrinks by d).
func Diff(xs []float64, d int) []float64 {
	out := append([]float64(nil), xs...)
	for k := 0; k < d; k++ {
		if len(out) <= 1 {
			return nil
		}
		next := make([]float64, len(out)-1)
		for i := 1; i < len(out); i++ {
			next[i-1] = out[i] - out[i-1]
		}
		out = next
	}
	return out
}

// SeasonalDiff returns the seasonal difference x_t − x_{t−period}, applied
// D times.
func SeasonalDiff(xs []float64, period, D int) []float64 {
	out := append([]float64(nil), xs...)
	for k := 0; k < D; k++ {
		if len(out) <= period {
			return nil
		}
		next := make([]float64, len(out)-period)
		for i := period; i < len(out); i++ {
			next[i-period] = out[i] - out[i-period]
		}
		out = next
	}
	return out
}

// ACF returns the sample autocorrelation function for lags 0..maxLag.
func ACF(xs []float64, maxLag int) ([]float64, error) {
	n := len(xs)
	if n < 2 {
		return nil, errors.New("timeseries: series too short for ACF")
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	c0 := 0.0
	for _, x := range xs {
		d := x - mean
		c0 += d * d
	}
	if c0 == 0 { //lint:ignore rentlint/floatcmp division guard: only an exactly-zero variance makes the ACF undefined
		return nil, errors.New("timeseries: constant series has undefined ACF")
	}
	out := make([]float64, maxLag+1)
	out[0] = 1
	for k := 1; k <= maxLag; k++ {
		ck := 0.0
		for t := k; t < n; t++ {
			ck += (xs[t] - mean) * (xs[t-k] - mean)
		}
		out[k] = ck / c0
	}
	return out, nil
}

// PACF returns the sample partial autocorrelation for lags 1..maxLag via
// the Durbin–Levinson recursion.
func PACF(xs []float64, maxLag int) ([]float64, error) {
	acf, err := ACF(xs, maxLag)
	if err != nil {
		return nil, err
	}
	maxLag = len(acf) - 1
	pacf := make([]float64, maxLag+1) // pacf[0] unused (set to 1)
	pacf[0] = 1
	phi := make([][]float64, maxLag+1)
	for k := 1; k <= maxLag; k++ {
		phi[k] = make([]float64, k+1)
	}
	if maxLag >= 1 {
		phi[1][1] = acf[1]
		pacf[1] = acf[1]
	}
	for k := 2; k <= maxLag; k++ {
		num := acf[k]
		den := 1.0
		for j := 1; j < k; j++ {
			num -= phi[k-1][j] * acf[k-j]
			den -= phi[k-1][j] * acf[j]
		}
		if math.Abs(den) < 1e-14 {
			phi[k][k] = 0
		} else {
			phi[k][k] = num / den
		}
		for j := 1; j < k; j++ {
			phi[k][j] = phi[k-1][j] - phi[k][k]*phi[k-1][k-j]
		}
		pacf[k] = phi[k][k]
	}
	return pacf, nil
}

// ConfidenceBand returns the symmetric 95% white-noise band ±1.96/√n used in
// correlogram plots.
func ConfidenceBand(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return 1.96 / math.Sqrt(float64(n))
}

// Decomposition is the classical additive decomposition of a seasonal
// series: x_t = Trend_t + Seasonal_t + Remainder_t. Trend entries without a
// full centred window are NaN, matching R's decompose().
type Decomposition struct {
	Data      []float64
	Trend     []float64
	Seasonal  []float64
	Remainder []float64
	Period    int
}

// Decompose performs moving-average classical decomposition with the given
// seasonal period (24 for hourly data with daily seasonality).
func Decompose(xs []float64, period int) (*Decomposition, error) {
	n := len(xs)
	if period < 2 {
		return nil, fmt.Errorf("timeseries: period %d < 2", period)
	}
	if n < 2*period {
		return nil, fmt.Errorf("timeseries: need at least two periods (%d), have %d points", 2*period, n)
	}
	d := &Decomposition{
		Data:      append([]float64(nil), xs...),
		Trend:     make([]float64, n),
		Seasonal:  make([]float64, n),
		Remainder: make([]float64, n),
		Period:    period,
	}
	// Centred moving average of window `period` (2×period for even periods,
	// with half weights at the ends).
	half := period / 2
	for t := 0; t < n; t++ {
		d.Trend[t] = math.NaN()
	}
	if period%2 == 0 {
		for t := half; t < n-half; t++ {
			s := 0.5*xs[t-half] + 0.5*xs[t+half]
			for j := t - half + 1; j <= t+half-1; j++ {
				s += xs[j]
			}
			d.Trend[t] = s / float64(period)
		}
	} else {
		for t := half; t < n-half; t++ {
			s := 0.0
			for j := t - half; j <= t+half; j++ {
				s += xs[j]
			}
			d.Trend[t] = s / float64(period)
		}
	}
	// Seasonal component: average detrended value by phase, centred.
	sums := make([]float64, period)
	counts := make([]int, period)
	for t := 0; t < n; t++ {
		if math.IsNaN(d.Trend[t]) {
			continue
		}
		ph := t % period
		sums[ph] += xs[t] - d.Trend[t]
		counts[ph]++
	}
	seasonal := make([]float64, period)
	mean := 0.0
	for ph := 0; ph < period; ph++ {
		if counts[ph] > 0 {
			seasonal[ph] = sums[ph] / float64(counts[ph])
		}
		mean += seasonal[ph]
	}
	mean /= float64(period)
	for ph := range seasonal {
		seasonal[ph] -= mean
	}
	for t := 0; t < n; t++ {
		d.Seasonal[t] = seasonal[t%period]
		if math.IsNaN(d.Trend[t]) {
			d.Remainder[t] = math.NaN()
		} else {
			d.Remainder[t] = xs[t] - d.Trend[t] - d.Seasonal[t]
		}
	}
	return d, nil
}

// SeasonalStrength returns the fraction of (seasonal+remainder) variance
// explained by the seasonal component, in [0,1]; ~0 means no seasonality.
func (d *Decomposition) SeasonalStrength() float64 {
	var vs, vr float64
	var n int
	for t := range d.Data {
		if math.IsNaN(d.Remainder[t]) {
			continue
		}
		vs += d.Seasonal[t] * d.Seasonal[t]
		vr += d.Remainder[t] * d.Remainder[t]
		n++
	}
	if n == 0 || vs+vr == 0 { //lint:ignore rentlint/floatcmp division guard: sums of squares are ≥0, so an exactly-zero total is the only undefined case
		return 0
	}
	return vs / (vs + vr)
}

// TrendStrength returns max(0, 1 − Var(remainder)/Var(trend+remainder)).
func (d *Decomposition) TrendStrength() float64 {
	var detr, rem []float64
	for t := range d.Data {
		if math.IsNaN(d.Remainder[t]) {
			continue
		}
		detr = append(detr, d.Trend[t]+d.Remainder[t])
		rem = append(rem, d.Remainder[t])
	}
	vd := variance(detr)
	vr := variance(rem)
	if vd == 0 { //lint:ignore rentlint/floatcmp division guard: only an exactly-zero variance makes the strength ratio undefined
		return 0
	}
	s := 1 - vr/vd
	if s < 0 {
		return 0
	}
	return s
}

func variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return v / float64(len(xs)-1)
}

// IsWeaklyStationary applies a simple two-sample check: the series is split
// in halves and means/variances must agree within tol fractions of the
// overall scale. It is the pragmatic "verify the series is statistically
// stationary" step before ARIMA order selection.
func IsWeaklyStationary(xs []float64, tol float64) bool {
	n := len(xs)
	if n < 8 {
		return false
	}
	if tol <= 0 {
		tol = 0.5
	}
	a, b := xs[:n/2], xs[n/2:]
	ma, mb := meanOf(a), meanOf(b)
	va, vb := variance(a), variance(b)
	scale := math.Abs(meanOf(xs))
	sd := math.Sqrt(variance(xs))
	if sd == 0 { //lint:ignore rentlint/floatcmp degenerate-sample check: zero standard deviation means a literally constant series
		return true
	}
	if scale < sd {
		scale = sd
	}
	if math.Abs(ma-mb) > tol*scale {
		return false
	}
	if va == 0 && vb == 0 { //lint:ignore rentlint/floatcmp degenerate-half check: a variance is exactly zero only for a constant half-series
		return true
	}
	if va == 0 || vb == 0 { //lint:ignore rentlint/floatcmp degenerate-half check: a variance is exactly zero only for a constant half-series
		return false
	}
	lo, hi := 1/(1+8*tol), 1+8*tol
	r := va / vb
	return r > lo && r < hi
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// LjungBox computes the Ljung–Box portmanteau statistic
// Q = n(n+2) Σ_{k=1..h} ρ̂_k²/(n−k) for the first h autocorrelations and
// the χ²(h−fitted) p-value. It is the standard Box–Jenkins residual
// diagnostic: a small p-value rejects the hypothesis that the series is
// white noise. fitted is the number of estimated ARMA parameters (0 when
// testing a raw series).
func LjungBox(xs []float64, h, fitted int) (stat, pValue float64, err error) {
	n := len(xs)
	if h < 1 {
		return 0, 0, errors.New("timeseries: LjungBox needs h >= 1")
	}
	if h >= n {
		return 0, 0, errors.New("timeseries: LjungBox needs h < n")
	}
	df := h - fitted
	if df < 1 {
		return 0, 0, errors.New("timeseries: LjungBox needs h > fitted parameters")
	}
	acf, err := ACF(xs, h)
	if err != nil {
		return 0, 0, err
	}
	q := 0.0
	for k := 1; k <= h; k++ {
		q += acf[k] * acf[k] / float64(n-k)
	}
	q *= float64(n) * float64(n+2)
	return q, chiSquareSF(q, df), nil
}

// chiSquareSF is the χ²(k) survival function P(X > x), via the regularised
// upper incomplete gamma function computed with a series/continued-fraction
// split (Numerical-Recipes style).
func chiSquareSF(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	a := float64(k) / 2
	xx := x / 2
	if xx < a+1 {
		// Lower series: P(a,x) then SF = 1 − P.
		return 1 - gammaPSeries(a, xx)
	}
	return gammaQContinued(a, xx)
}

func gammaPSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	logGammaA, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-logGammaA)
}

func gammaQContinued(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	logGammaA, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-logGammaA) * h
}
