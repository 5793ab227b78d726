// Package stats provides the statistical primitives used by the price
// analysis and planning code: summary statistics, quantiles and
// box-and-whisker outlier detection, histograms, kernel density estimation,
// normality tests (Shapiro–Wilk, Jarque–Bera), the normal distribution and
// its inverse, truncated-normal sampling, and empirical discrete
// distributions.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Skewness returns the sample skewness (biased, moment-based).
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 { //lint:ignore rentlint/floatcmp division guard: only an exactly-zero central moment makes the ratio undefined
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Kurtosis returns the sample excess kurtosis (biased, moment-based).
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m4 /= n
	if m2 == 0 { //lint:ignore rentlint/floatcmp division guard: only an exactly-zero central moment makes the ratio undefined
		return 0
	}
	return m4/(m2*m2) - 3
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (R type-7, the R default).
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// FiveNum is a box-and-whisker summary of a sample.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	// WhiskerLo and WhiskerHi are the most extreme points within
	// 1.5·IQR of the quartiles (the whisker ends).
	WhiskerLo, WhiskerHi float64
	// Outliers are points beyond the whiskers, sorted ascending.
	Outliers []float64
	// N is the sample size.
	N int
}

// OutlierFrac returns the fraction of points flagged as outliers.
func (f FiveNum) OutlierFrac() float64 {
	if f.N == 0 {
		return 0
	}
	return float64(len(f.Outliers)) / float64(f.N)
}

// BoxWhisker computes the five-number summary with 1.5·IQR whiskers, the
// rule the paper uses in Fig. 3 to flag spot-price outliers.
func BoxWhisker(xs []float64) FiveNum {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return FiveNum{}
	}
	f := FiveNum{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[n-1],
		N:      n,
	}
	iqr := f.Q3 - f.Q1
	loFence := f.Q1 - 1.5*iqr
	hiFence := f.Q3 + 1.5*iqr
	f.WhiskerLo, f.WhiskerHi = f.Max, f.Min
	for _, x := range s {
		if x < loFence || x > hiFence {
			f.Outliers = append(f.Outliers, x)
			continue
		}
		if x < f.WhiskerLo {
			f.WhiskerLo = x
		}
		if x > f.WhiskerHi {
			f.WhiskerHi = x
		}
	}
	return f
}

// TrimOutliers returns xs without the 1.5·IQR outliers (order preserved).
func TrimOutliers(xs []float64) []float64 {
	f := BoxWhisker(xs)
	iqr := f.Q3 - f.Q1
	lo, hi := f.Q1-1.5*iqr, f.Q3+1.5*iqr
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	return out
}

// Histogram is a fixed-width binned frequency count.
type Histogram struct {
	Lo, Hi float64
	Width  float64
	Counts []int
	N      int
}

// NewHistogram bins xs into the given number of equal-width bins spanning
// [min, max]. bins must be ≥ 1.
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, errors.New("stats: bins must be >= 1")
	}
	if len(xs) == 0 {
		return nil, errors.New("stats: empty sample")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi == lo { //lint:ignore rentlint/floatcmp degenerate-range check: min and max are copied sample values, equal only for a constant sample
		hi = lo + 1e-12
	}
	h := &Histogram{Lo: lo, Hi: hi, Width: (hi - lo) / float64(bins), Counts: make([]int, bins), N: len(xs)}
	for _, x := range xs {
		b := int((x - lo) / h.Width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h, nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 { return h.Lo + (float64(i)+0.5)*h.Width }

// KDE evaluates a Gaussian kernel density estimate of xs at each point in
// at, using Silverman's rule-of-thumb bandwidth when bw ≤ 0.
func KDE(xs []float64, at []float64, bw float64) []float64 {
	n := len(xs)
	if n == 0 {
		return make([]float64, len(at))
	}
	if bw <= 0 {
		sd := StdDev(xs)
		iqr := Quantile(xs, 0.75) - Quantile(xs, 0.25)
		a := sd
		if iqr > 0 && iqr/1.34 < a {
			a = iqr / 1.34
		}
		if a <= 0 {
			a = 1e-9
		}
		bw = 0.9 * a * math.Pow(float64(n), -0.2)
	}
	out := make([]float64, len(at))
	inv := 1 / (bw * math.Sqrt(2*math.Pi) * float64(n))
	for i, p := range at {
		s := 0.0
		for _, x := range xs {
			z := (p - x) / bw
			s += math.Exp(-0.5 * z * z)
		}
		out[i] = s * inv
	}
	return out
}

// NormalCDF is Φ(z), the standard normal cumulative distribution function.
func NormalCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// NormalPDF is φ(z), the standard normal density.
func NormalPDF(z float64) float64 { return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi) }

// NormalQuantile is Φ⁻¹(p) via Acklam's rational approximation, refined by
// one Halley step; accurate to ~1e-15 over (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00
		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01
		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00
		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00
	)
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}
