// Package arima implements univariate ARMA and seasonal ARIMA (SARIMA)
// modelling: conditional-sum-of-squares estimation, automatic order
// selection by information criterion, and multi-step forecasting with
// prediction intervals. It reproduces the role the R forecast package plays
// in the paper's Sec. IV-A spot-price predictability study, where the best
// model found was SARIMA(2,0,1..2)×(2,0,0)₂₄.
package arima

import (
	"errors"
	"fmt"
	"math"

	"rentplan/internal/optimize"
	"rentplan/internal/timeseries"
)

// Spec fixes the model orders: SARIMA(P,D,Q)×(SP,SD,SQ)_Period. Period = 0
// (or SP=SD=SQ=0) degenerates to plain ARIMA; D = SD = 0 with no mean
// removal gives ARMA.
type Spec struct {
	P, D, Q    int
	SP, SD, SQ int
	Period     int
	// WithMean includes an estimated mean of the differenced series.
	WithMean bool
}

func (s Spec) String() string {
	if s.Period > 0 && (s.SP > 0 || s.SD > 0 || s.SQ > 0) {
		return fmt.Sprintf("SARIMA(%d,%d,%d)x(%d,%d,%d)[%d]", s.P, s.D, s.Q, s.SP, s.SD, s.SQ, s.Period)
	}
	return fmt.Sprintf("ARIMA(%d,%d,%d)", s.P, s.D, s.Q)
}

// nParams is the number of free parameters (excluding σ²).
func (s Spec) nParams() int {
	n := s.P + s.Q + s.SP + s.SQ
	if s.WithMean {
		n++
	}
	return n
}

func (s Spec) validate() error {
	if s.P < 0 || s.D < 0 || s.Q < 0 || s.SP < 0 || s.SD < 0 || s.SQ < 0 {
		return errors.New("arima: negative order")
	}
	if (s.SP > 0 || s.SD > 0 || s.SQ > 0) && s.Period < 2 {
		return errors.New("arima: seasonal orders need Period >= 2")
	}
	return nil
}

// Model is a fitted SARIMA model.
type Model struct {
	Spec     Spec
	AR, MA   []float64 // nonseasonal φ and θ
	SAR, SMA []float64 // seasonal Φ and Θ
	Mean     float64   // mean of the fully differenced series
	Sigma2   float64   // CSS innovation variance estimate
	AIC, BIC float64
	N        int // effective observations entering the CSS

	// history retained for forecasting.
	series []float64
}

// expandedAR returns the coefficients of φ(L)·Φ(L^s) written as
// w_t = Σ a_i w_{t−i} + ..., i.e. the full autoregressive lag polynomial
// with the leading 1 dropped and signs such that a_i multiply past values.
func expandPoly(nonseasonal []float64, seasonal []float64, period int) []float64 {
	// Polynomial form: (1 − Σ c_i L^i)(1 − Σ C_j L^{js}); product expanded.
	n := len(nonseasonal) + period*len(seasonal)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i, c := range nonseasonal {
		out[i] += c
	}
	for j, cs := range seasonal {
		lag := (j + 1) * period
		out[lag-1] += cs
		for i, c := range nonseasonal {
			out[lag+i] -= cs * c // cross terms: −(−C)(−c) = −Cc
		}
	}
	return out
}

// stationary applies the Schur–Cohn test: the monic polynomial
// 1 − Σ a_i z^i has all roots outside the unit circle iff all reflection
// coefficients computed by the step-down recursion lie in (−1, 1).
func stationary(a []float64) bool {
	p := len(a)
	if p == 0 {
		return true
	}
	cur := append([]float64(nil), a...)
	for k := p; k >= 1; k-- {
		r := cur[k-1]
		if math.Abs(r) >= 1-1e-9 {
			return false
		}
		if k == 1 {
			break
		}
		next := make([]float64, k-1)
		den := 1 - r*r
		for i := 0; i < k-1; i++ {
			next[i] = (cur[i] + r*cur[k-2-i]) / den
		}
		cur = next
	}
	return true
}

// cssResiduals runs the ARMA recursion e_t = w_t − μ − Σa_i(w_{t−i}−μ)
// − Σb_j e_{t−j} with zero pre-sample residuals, starting after the longest
// AR lag. It returns the residuals and the implied sum of squares.
func cssResiduals(w []float64, a, b []float64, mu float64) ([]float64, float64) {
	n := len(w)
	p, q := len(a), len(b)
	e := make([]float64, n)
	css := 0.0
	for t := p; t < n; t++ {
		v := w[t] - mu
		for i := 0; i < p; i++ {
			v -= a[i] * (w[t-1-i] - mu)
		}
		for j := 0; j < q && t-1-j >= p; j++ {
			v -= b[j] * e[t-1-j]
		}
		e[t] = v
		css += v * v
	}
	return e, css
}

// Fit estimates the model on xs by conditional sum of squares.
func Fit(xs []float64, spec Spec) (*Model, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	w := difference(xs, spec)
	pFull := spec.P + spec.Period*spec.SP
	qFull := spec.Q + spec.Period*spec.SQ
	minN := pFull + qFull + spec.nParams() + 8
	if len(w) < minN {
		return nil, fmt.Errorf("arima: series too short after differencing: %d < %d", len(w), minN)
	}

	// Parameter vector layout: [AR, MA, SAR, SMA, (mean)].
	x0 := initialGuess(w, spec)
	unpack := func(x []float64) (ar, ma, sar, sma []float64, mu float64) {
		i := 0
		ar = x[i : i+spec.P]
		i += spec.P
		ma = x[i : i+spec.Q]
		i += spec.Q
		sar = x[i : i+spec.SP]
		i += spec.SP
		sma = x[i : i+spec.SQ]
		i += spec.SQ
		if spec.WithMean {
			mu = x[i]
		}
		return
	}
	obj := func(x []float64) float64 {
		ar, ma, sar, sma, mu := unpack(x)
		a := expandPoly(ar, sar, spec.Period)
		b := expandMA(ma, sma, spec.Period)
		if !stationary(a) || !stationary(negate(b)) {
			return math.Inf(1)
		}
		_, css := cssResiduals(w, a, b, mu)
		return css
	}
	var res optimize.Result
	if len(x0) == 0 {
		res = optimize.Result{X: nil, F: obj(nil)}
	} else {
		var err error
		res, err = optimize.Minimize(obj, x0, optimize.Options{Restarts: 2})
		if err != nil {
			return nil, err
		}
		if math.IsInf(res.F, 1) {
			// Retry from a conservative zero start.
			zero := make([]float64, len(x0))
			if spec.WithMean {
				zero[len(zero)-1] = mean(w)
			}
			res, err = optimize.Minimize(obj, zero, optimize.Options{Restarts: 2})
			if err != nil {
				return nil, err
			}
		}
		if math.IsInf(res.F, 1) {
			return nil, errors.New("arima: no stationary/invertible parameters found")
		}
	}
	ar, ma, sar, sma, mu := unpack(res.X)
	a := expandPoly(ar, sar, spec.Period)
	nEff := len(w) - len(a)
	if nEff < 1 {
		return nil, errors.New("arima: no effective observations")
	}
	sigma2 := res.F / float64(nEff)
	k := float64(spec.nParams() + 1) // +1 for σ²
	logLik := -0.5 * float64(nEff) * (math.Log(2*math.Pi*sigma2) + 1)
	m := &Model{
		Spec:   spec,
		AR:     append([]float64(nil), ar...),
		MA:     append([]float64(nil), ma...),
		SAR:    append([]float64(nil), sar...),
		SMA:    append([]float64(nil), sma...),
		Mean:   mu,
		Sigma2: sigma2,
		AIC:    -2*logLik + 2*k,
		BIC:    -2*logLik + math.Log(float64(nEff))*k,
		N:      nEff,
		series: append([]float64(nil), xs...),
	}
	return m, nil
}

// expandMA expands (1 + Σθ_i L^i)(1 + ΣΘ_j L^{js}) into 1 + Σ b_k L^k and
// returns b. Note the positive cross terms, unlike the AR expansion.
func expandMA(ma, sma []float64, period int) []float64 {
	return negate(expandPoly(negate(ma), negate(sma), period))
}

func negate(b []float64) []float64 {
	out := make([]float64, len(b))
	for i, v := range b {
		out[i] = -v
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// initialGuess builds a starting parameter vector: Yule–Walker-flavoured AR
// seeds from the sample ACF, small MA seeds, and the sample mean.
func initialGuess(w []float64, spec Spec) []float64 {
	n := spec.nParams()
	if n == 0 {
		return nil
	}
	x0 := make([]float64, n)
	if spec.P > 0 {
		if acf, err := timeseries.ACF(w, spec.P); err == nil {
			// Durbin–Levinson for AR(p) seeds.
			phi := solveYuleWalker(acf, spec.P)
			for i := 0; i < spec.P; i++ {
				x0[i] = clamp(phi[i], -0.9, 0.9)
			}
		}
	}
	for i := spec.P; i < spec.P+spec.Q; i++ {
		x0[i] = 0.05
	}
	base := spec.P + spec.Q
	for i := 0; i < spec.SP; i++ {
		x0[base+i] = 0.1
	}
	for i := 0; i < spec.SQ; i++ {
		x0[base+spec.SP+i] = 0.05
	}
	if spec.WithMean {
		x0[n-1] = mean(w)
	}
	return x0
}

func clamp(x, lo, hi float64) float64 { return math.Min(math.Max(x, lo), hi) }

// solveYuleWalker returns AR(p) coefficients from the ACF via
// Durbin–Levinson.
func solveYuleWalker(acf []float64, p int) []float64 {
	phi := make([]float64, p)
	prev := make([]float64, p)
	var e float64 = 1
	for k := 1; k <= p; k++ {
		num := acf[k]
		for j := 1; j < k; j++ {
			num -= prev[j-1] * acf[k-j]
		}
		var rk float64
		if e > 1e-14 {
			rk = num / e
		}
		phi[k-1] = rk
		for j := 1; j < k; j++ {
			phi[j-1] = prev[j-1] - rk*prev[k-1-j]
		}
		e *= 1 - rk*rk
		copy(prev, phi[:k])
	}
	return phi
}

// difference applies the spec's regular and seasonal differencing.
func difference(xs []float64, spec Spec) []float64 {
	w := append([]float64(nil), xs...)
	if spec.D > 0 {
		w = timeseries.Diff(w, spec.D)
	}
	if spec.SD > 0 {
		w = timeseries.SeasonalDiff(w, spec.Period, spec.SD)
	}
	return w
}
