package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Fatalf("mean %v", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("variance %v", v)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("degenerate inputs should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBoxWhisker(t *testing.T) {
	// 10 regular points plus 2 extreme outliers.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, -100}
	f := BoxWhisker(xs)
	if len(f.Outliers) != 2 {
		t.Fatalf("outliers = %v, want 2", f.Outliers)
	}
	if f.OutlierFrac() != 2.0/12 {
		t.Fatalf("frac %v", f.OutlierFrac())
	}
	if f.Min != -100 || f.Max != 100 {
		t.Fatalf("min/max wrong: %+v", f)
	}
	if f.WhiskerLo != 1 || f.WhiskerHi != 10 {
		t.Fatalf("whiskers: %+v", f)
	}
	trimmed := TrimOutliers(xs)
	if len(trimmed) != 10 {
		t.Fatalf("trimmed %v", trimmed)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.9, 1.0}
	h, err := NewHistogram(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 || h.Counts[1] != 2 {
		t.Fatalf("counts %v", h.Counts)
	}
	// Every sample lands in a bin, so the density integrates to 1.
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	if n != h.N || h.N != len(xs) {
		t.Fatalf("bins hold %d of N=%d samples (%d given)", n, h.N, len(xs))
	}
	if _, err := NewHistogram(nil, 3); err == nil {
		t.Fatal("want error for empty sample")
	}
	if _, err := NewHistogram(xs, 0); err == nil {
		t.Fatal("want error for zero bins")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := NewRNG(1)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	at := make([]float64, 801)
	for i := range at {
		at[i] = -8 + float64(i)*0.02
	}
	dens := KDE(xs, at, 0)
	integral := 0.0
	for _, d := range dens {
		integral += d * 0.02
	}
	if math.Abs(integral-1) > 0.02 {
		t.Fatalf("KDE integral %v", integral)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-10} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("boundary quantiles should be infinite")
	}
	// Spot values against tables.
	if z := NormalQuantile(0.975); math.Abs(z-1.959964) > 1e-5 {
		t.Fatalf("z(0.975) = %v", z)
	}
}

func TestShapiroWilkNormalSample(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 3 + 2*rng.NormFloat64()
	}
	r, err := ShapiroWilk(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stat < 0.97 {
		t.Fatalf("W = %v for normal data", r.Stat)
	}
	if r.Rejects(0.01) {
		t.Fatalf("normal data rejected: %+v", r)
	}
}

func TestShapiroWilkSkewedSample(t *testing.T) {
	rng := NewRNG(8)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()) // lognormal: far from normal
	}
	r, err := ShapiroWilk(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rejects(0.001) {
		t.Fatalf("lognormal data not rejected: %+v", r)
	}
}

func TestShapiroWilkBimodal(t *testing.T) {
	// Two well-separated clusters, as a spot-price window often shows.
	rng := NewRNG(9)
	xs := make([]float64, 300)
	for i := range xs {
		c := 0.057
		if i%2 == 0 {
			c = 0.063
		}
		xs[i] = c + 0.0004*rng.NormFloat64()
	}
	r, err := ShapiroWilk(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rejects(0.01) {
		t.Fatalf("bimodal data not rejected: %+v", r)
	}
}

func TestShapiroWilkErrors(t *testing.T) {
	if _, err := ShapiroWilk([]float64{1, 2}); err == nil {
		t.Fatal("want n>=3 error")
	}
	if _, err := ShapiroWilk([]float64{5, 5, 5, 5}); err == nil {
		t.Fatal("want zero-range error")
	}
	if _, err := ShapiroWilk(make([]float64, 5001)); err == nil {
		t.Fatal("want n<=5000 error")
	}
}

func TestShapiroWilkSmallN(t *testing.T) {
	// n in the small-sample branch (3..11).
	xs := []float64{148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236}
	r, err := ShapiroWilk(xs)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy 236 outlier makes this sample clearly non-normal: W must be
	// depressed well below typical normal-sample values and p small.
	if r.Stat < 0.70 || r.Stat > 0.88 {
		t.Fatalf("W = %v, want ≈0.8 for this skewed sample", r.Stat)
	}
	if !r.Rejects(0.05) {
		t.Fatalf("skewed small sample not rejected: %+v", r)
	}
}

func TestJarqueBera(t *testing.T) {
	rng := NewRNG(10)
	normal := make([]float64, 500)
	skewed := make([]float64, 500)
	for i := range normal {
		normal[i] = rng.NormFloat64()
		skewed[i] = math.Exp(rng.NormFloat64())
	}
	rn, err := JarqueBera(normal)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Rejects(0.01) {
		t.Fatalf("JB rejected normal data: %+v", rn)
	}
	rs, err := JarqueBera(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Rejects(0.001) {
		t.Fatalf("JB accepted lognormal data: %+v", rs)
	}
	if _, err := JarqueBera([]float64{1, 2, 3}); err == nil {
		t.Fatal("want n>=8 error")
	}
}

func TestTruncNormalBounds(t *testing.T) {
	rng := NewRNG(3)
	for i := 0; i < 2000; i++ {
		x := TruncNormal(rng, 0.4, 0.2, 0, 1)
		if x < 0 || x > 1 {
			t.Fatalf("out of bounds: %v", x)
		}
	}
	// Far-tail interval exercises the inverse-CDF fallback.
	for i := 0; i < 50; i++ {
		x := TruncNormal(rng, 0, 1, 8, 9)
		if x < 8 || x > 9 {
			t.Fatalf("tail sample out of bounds: %v", x)
		}
	}
	if x := TruncNormal(rng, 5, 0, 0, 1); x != 1 {
		t.Fatalf("sigma=0 should clamp: %v", x)
	}
}

func TestPositiveNormalAlwaysPositive(t *testing.T) {
	rng := NewRNG(4)
	for i := 0; i < 5000; i++ {
		if x := PositiveNormal(rng, 0.4, 0.2); x <= 0 {
			t.Fatalf("non-positive draw %v", x)
		}
	}
}

func TestDiscreteFromSamples(t *testing.T) {
	xs := []float64{0.06, 0.06, 0.057, 0.063, 0.06}
	d := NewDiscreteFromSamples(xs, 1e-4)
	if d.Len() != 3 {
		t.Fatalf("support %v", d.Values)
	}
	if math.Abs(d.TotalMass()-1) > 1e-12 {
		t.Fatalf("mass %v", d.TotalMass())
	}
	// P(X ≤ 0.0601) = 0.8: the 0.057 and 0.06 atoms.
	cdf := 0.0
	for i, v := range d.Values {
		if v <= 0.0601 {
			cdf += d.Probs[i]
		}
	}
	if math.Abs(cdf-0.8) > 1e-12 {
		t.Fatalf("cdf %v", cdf)
	}
	want := (0.06*3 + 0.057 + 0.063) / 5
	if math.Abs(d.Mean()-want) > 1e-12 {
		t.Fatalf("mean %v want %v", d.Mean(), want)
	}
	// Values must be sorted ascending.
	for i := 1; i < d.Len(); i++ {
		if d.Values[i] < d.Values[i-1] {
			t.Fatalf("unsorted support %v", d.Values)
		}
	}
}

func TestDiscreteTruncate(t *testing.T) {
	d := Discrete{Values: []float64{1, 2, 3, 4}, Probs: []float64{0.1, 0.2, 0.3, 0.4}}
	kept, tail := d.Truncate(2.5)
	if kept.Len() != 2 || math.Abs(tail-0.7) > 1e-12 {
		t.Fatalf("kept=%v tail=%v", kept, tail)
	}
	kept, tail = d.Truncate(0.5)
	if kept.Len() != 0 || math.Abs(tail-1) > 1e-12 {
		t.Fatalf("full truncation: kept=%v tail=%v", kept, tail)
	}
}

func TestDiscreteAggregate(t *testing.T) {
	d := Discrete{
		Values: []float64{1, 2, 3, 4, 5, 6},
		Probs:  []float64{1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6},
	}
	g := d.Aggregate(3)
	if g.Len() != 3 {
		t.Fatalf("aggregated support %v", g.Values)
	}
	if math.Abs(g.TotalMass()-1) > 1e-12 {
		t.Fatalf("mass %v", g.TotalMass())
	}
	if math.Abs(g.Mean()-d.Mean()) > 1e-12 {
		t.Fatalf("aggregation must preserve mean: %v vs %v", g.Mean(), d.Mean())
	}
	// k >= support size returns a copy.
	same := d.Aggregate(10)
	if same.Len() != d.Len() {
		t.Fatalf("no-op aggregate changed support")
	}
}

func TestQuickDiscreteMassPreserved(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(v, 100)
		}
		d := NewDiscreteFromSamples(xs, 1e-6)
		if math.Abs(d.TotalMass()-1) > 1e-9 {
			return false
		}
		g := d.Aggregate(4)
		return math.Abs(g.TotalMass()-1) < 1e-9 && g.Len() <= 4 &&
			math.Abs(g.Mean()-d.Mean()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewnessKurtosis(t *testing.T) {
	// Symmetric data: skew ~ 0; uniform has negative excess kurtosis.
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s := Skewness(xs); math.Abs(s) > 1e-9 {
		t.Fatalf("skew %v", s)
	}
	if k := Kurtosis(xs); k > -1 || k < -1.3 {
		t.Fatalf("uniform kurtosis %v, want ≈ -1.2", k)
	}
}

func TestDiscreteFromLargeSample(t *testing.T) {
	// More than 64 distinct values exercises the quicksort path.
	rng := NewRNG(99)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	d := NewDiscreteFromSamples(xs, 0)
	if d.Len() < 100 {
		t.Fatalf("support %d", d.Len())
	}
	for i := 1; i < d.Len(); i++ {
		if d.Values[i] < d.Values[i-1] {
			t.Fatal("unsorted support")
		}
	}
	if math.Abs(d.TotalMass()-1) > 1e-9 {
		t.Fatalf("mass %v", d.TotalMass())
	}
}

func TestHistogramBinCenterAndNormalPDF(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.BinCenter(0)-0.5) > 1e-12 {
		t.Fatalf("bin center %v", h.BinCenter(0))
	}
	if math.Abs(NormalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("pdf(0) = %v", NormalPDF(0))
	}
}
