package arima

import (
	"math"
	"math/rand"
	"testing"
)

// simulateARMA generates n points of a (seasonal) ARMA process with the
// given expanded-form coefficients and innovation std sigma.
func simulateARMA(rng *rand.Rand, n int, a, b []float64, mu, sigma float64) []float64 {
	burn := 200
	total := n + burn
	w := make([]float64, total)
	e := make([]float64, total)
	for t := 0; t < total; t++ {
		e[t] = sigma * rng.NormFloat64()
		v := e[t]
		for i := 0; i < len(a); i++ {
			if t-1-i >= 0 {
				v += a[i] * (w[t-1-i] - mu)
			}
		}
		for j := 0; j < len(b); j++ {
			if t-1-j >= 0 {
				v += b[j] * e[t-1-j]
			}
		}
		w[t] = mu + v
	}
	return w[burn:]
}

func TestFitAR1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := simulateARMA(rng, 3000, []float64{0.7}, nil, 5, 1)
	m, err := Fit(xs, Spec{P: 1, WithMean: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.7) > 0.06 {
		t.Fatalf("phi = %v, want ~0.7", m.AR[0])
	}
	if math.Abs(m.Mean-5) > 0.3 {
		t.Fatalf("mean = %v, want ~5", m.Mean)
	}
	if math.Abs(m.Sigma2-1) > 0.15 {
		t.Fatalf("sigma2 = %v, want ~1", m.Sigma2)
	}
}

func TestFitMA1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := simulateARMA(rng, 4000, nil, []float64{0.6}, 0, 1)
	m, err := Fit(xs, Spec{Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MA[0]-0.6) > 0.08 {
		t.Fatalf("theta = %v, want ~0.6", m.MA[0])
	}
}

func TestFitARMA11(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := simulateARMA(rng, 5000, []float64{0.5}, []float64{0.3}, 0, 1)
	m, err := Fit(xs, Spec{P: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.5) > 0.1 || math.Abs(m.MA[0]-0.3) > 0.12 {
		t.Fatalf("ar=%v ma=%v, want ~0.5/0.3", m.AR[0], m.MA[0])
	}
}

func TestFitSeasonalAR(t *testing.T) {
	// SAR(1) with period 4: w_t = 0.6 w_{t-4} + e_t.
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 4)
	a[3] = 0.6
	xs := simulateARMA(rng, 4000, a, nil, 0, 1)
	m, err := Fit(xs, Spec{SP: 1, Period: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.SAR[0]-0.6) > 0.08 {
		t.Fatalf("SAR = %v, want ~0.6", m.SAR[0])
	}
}

func TestExpandPoly(t *testing.T) {
	// (1 − 0.5L)(1 − 0.3L²) = 1 − 0.5L − 0.3L² + 0.15L³.
	a := expandPoly([]float64{0.5}, []float64{0.3}, 2)
	want := []float64{0.5, 0.3, -0.15}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Fatalf("a = %v, want %v", a, want)
		}
	}
	// MA expansion has a positive cross term:
	// (1 + 0.5L)(1 + 0.3L²) = 1 + 0.5L + 0.3L² + 0.15L³.
	b := expandMA([]float64{0.5}, []float64{0.3}, 2)
	wantB := []float64{0.5, 0.3, 0.15}
	for i := range wantB {
		if math.Abs(b[i]-wantB[i]) > 1e-12 {
			t.Fatalf("b = %v, want %v", b, wantB)
		}
	}
}

func TestStationaryCheck(t *testing.T) {
	cases := []struct {
		a    []float64
		want bool
	}{
		{[]float64{0.5}, true},
		{[]float64{1.01}, false},
		{[]float64{-0.99}, true},
		{[]float64{1.5, -0.56}, true}, // roots 1/0.7, 1/0.8 outside
		{[]float64{2.0, -1.5}, false}, // explosive
		{[]float64{0.2, 0.3, 0.1}, true},
		{nil, true},
	}
	for i, c := range cases {
		if got := stationary(c.a); got != c.want {
			t.Errorf("case %d: stationary(%v) = %v, want %v", i, c.a, got, c.want)
		}
	}
}

func TestForecastAR1ConvergesToMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := simulateARMA(rng, 2000, []float64{0.8}, nil, 10, 0.5)
	m, err := Fit(xs, Spec{P: 1, WithMean: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(100)
	if err != nil {
		t.Fatal(err)
	}
	// Long-horizon forecast converges to the process mean.
	if math.Abs(f.Mean[99]-10) > 0.5 {
		t.Fatalf("long forecast %v, want ~10", f.Mean[99])
	}
	// Interval width grows monotonically toward the stationary sd.
	for k := 1; k < 100; k++ {
		w0 := f.Upper[k-1] - f.Lower[k-1]
		w1 := f.Upper[k] - f.Lower[k]
		if w1 < w0-1e-9 {
			t.Fatalf("interval width shrank at %d", k)
		}
	}
	// Stationary sd of AR(1): sigma/sqrt(1-phi²) ≈ 0.5/0.6 = 0.833.
	wantW := 2 * 1.96 * 0.5 / math.Sqrt(1-0.64)
	gotW := f.Upper[99] - f.Lower[99]
	if math.Abs(gotW-wantW) > 0.4 {
		t.Fatalf("interval width %v, want ~%v", gotW, wantW)
	}
}

func TestForecastRandomWalkWithDrift(t *testing.T) {
	// ARIMA(0,1,0) with mean drift: x_t = x_{t-1} + 0.5 + e.
	rng := rand.New(rand.NewSource(6))
	n := 2000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = xs[i-1] + 0.5 + 0.1*rng.NormFloat64()
	}
	m, err := Fit(xs, Spec{D: 1, WithMean: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(10)
	if err != nil {
		t.Fatal(err)
	}
	last := xs[n-1]
	for k := 0; k < 10; k++ {
		want := last + 0.5*float64(k+1)
		if math.Abs(f.Mean[k]-want) > 0.2 {
			t.Fatalf("forecast[%d] = %v, want ~%v", k, f.Mean[k], want)
		}
	}
}

func TestForecastSeasonalDifferencing(t *testing.T) {
	// Pure seasonal pattern with period 4: x repeats [0,10,20,5].
	pattern := []float64{0, 10, 20, 5}
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = pattern[i%4]
	}
	m, err := Fit(xs, Spec{SD: 1, Period: 4, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(8)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		want := pattern[(80+k)%4]
		if math.Abs(f.Mean[k]-want) > 0.5 {
			t.Fatalf("seasonal forecast[%d] = %v, want %v", k, f.Mean[k], want)
		}
	}
}

func TestForecastErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := simulateARMA(rng, 200, []float64{0.5}, nil, 0, 1)
	m, err := Fit(xs, Spec{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(0); err == nil {
		t.Fatal("want horizon error")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(make([]float64, 100), Spec{P: -1}); err == nil {
		t.Fatal("want negative order error")
	}
	if _, err := Fit(make([]float64, 100), Spec{SP: 1}); err == nil {
		t.Fatal("want period error")
	}
	if _, err := Fit(make([]float64, 10), Spec{P: 3, Q: 3}); err == nil {
		t.Fatal("want short-series error")
	}
}

func TestAutoFitPicksAROrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := simulateARMA(rng, 3000, []float64{1.2, -0.35}, nil, 0, 1) // AR(2)
	best, cands, err := AutoFit(xs, AutoOptions{MaxP: 3, MaxQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if best.Spec.P < 2 {
		t.Fatalf("AutoFit picked %v; AR(2) data needs P>=2", best.Spec)
	}
	// Candidates sorted best-first.
	for i := 1; i < len(cands); i++ {
		if cands[i].Score < cands[i-1].Score {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestAutoFitErrors(t *testing.T) {
	if _, _, err := AutoFit(make([]float64, 50), AutoOptions{MaxP: -1}); err == nil {
		t.Fatal("want bound error")
	}
	// Grid with nothing estimable (constant series, but P=Q=0 skipped).
	if _, _, err := AutoFit(make([]float64, 50), AutoOptions{}); err == nil {
		t.Fatal("want empty-grid error")
	}
}

func TestMSPEAndMeanForecast(t *testing.T) {
	pred := []float64{1, 2, 3}
	act := []float64{1, 3, 5}
	if got := MSPE(pred, act); math.Abs(got-(0+1+4)/3.0) > 1e-12 {
		t.Fatalf("mspe %v", got)
	}
	if !math.IsNaN(MSPE(nil, nil)) {
		t.Fatal("empty MSPE should be NaN")
	}
	mf := MeanForecast([]float64{2, 4}, 3)
	for _, v := range mf {
		if v != 3 {
			t.Fatalf("mean forecast %v", mf)
		}
	}
}

func TestResidualsAreWhiteForCorrectModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := simulateARMA(rng, 3000, []float64{0.7}, nil, 0, 1)
	m, err := Fit(xs, Spec{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := difference(m.series, m.Spec)
	a := expandPoly(m.AR, m.SAR, m.Spec.Period)
	b := expandMA(m.MA, m.SMA, m.Spec.Period)
	e, _ := cssResiduals(w, a, b, m.Mean)
	res := e[5:] // skip warmup zeros
	// Lag-1 autocorrelation of residuals should be near zero.
	var num, den, mu float64
	for _, r := range res {
		mu += r
	}
	mu /= float64(len(res))
	for i := 1; i < len(res); i++ {
		num += (res[i] - mu) * (res[i-1] - mu)
	}
	for _, r := range res {
		den += (r - mu) * (r - mu)
	}
	if ac := num / den; math.Abs(ac) > 0.05 {
		t.Fatalf("residual lag-1 autocorr %v", ac)
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{P: 2, Q: 1, SP: 2, Period: 24}
	if got := s.String(); got != "SARIMA(2,0,1)x(2,0,0)[24]" {
		t.Fatalf("String = %q", got)
	}
	s2 := Spec{P: 1, D: 1}
	if got := s2.String(); got != "ARIMA(1,1,0)" {
		t.Fatalf("String = %q", got)
	}
}
