package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

func TestResampleRule(t *testing.T) {
	es := &EventSeries{Events: []Event{
		{Hour: 0.5, Value: 10},
		{Hour: 2.2, Value: 20},
		{Hour: 2.8, Value: 25}, // same hour: the most recent must win
		{Hour: 5.0, Value: 30}, // exactly at an hour boundary
	}}
	xs, err := es.Resample(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 10, 10, 25, 25, 30}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("resample = %v, want %v", xs, want)
		}
	}
}

func TestResampleCarryBeforeWindow(t *testing.T) {
	es := &EventSeries{Events: []Event{{Hour: 1, Value: 7}, {Hour: 100, Value: 9}}}
	xs, err := es.Resample(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range xs {
		if v != 7 {
			t.Fatalf("carry failed: %v", xs)
		}
	}
}

func TestResampleErrors(t *testing.T) {
	es := &EventSeries{}
	if _, err := es.Resample(0, 5); err == nil {
		t.Fatal("want empty error")
	}
	es = &EventSeries{Events: []Event{{Hour: 2, Value: 1}, {Hour: 1, Value: 2}}}
	if _, err := es.Resample(0, 5); err == nil {
		t.Fatal("want unsorted error")
	}
	es.Sort()
	if !es.Sorted() {
		t.Fatal("Sort failed")
	}
	if _, err := es.Resample(0, 0); err == nil {
		t.Fatal("want length error")
	}
}

func TestDailyUpdateCounts(t *testing.T) {
	es := &EventSeries{Events: []Event{
		{Hour: 1}, {Hour: 5}, {Hour: 23.9}, // day 0
		{Hour: 24.1},           // day 1
		{Hour: 72.5},           // day 3
		{Hour: -1}, {Hour: 97}, // out of range for days=4
	}}
	got := es.DailyUpdateCounts(0, 4)
	want := []int{3, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
}

func TestDiff(t *testing.T) {
	xs := []float64{1, 4, 9, 16, 25}
	d1 := Diff(xs, 1)
	want := []float64{3, 5, 7, 9}
	for i := range want {
		if d1[i] != want[i] {
			t.Fatalf("d1 = %v", d1)
		}
	}
	d2 := Diff(xs, 2)
	for _, v := range d2 {
		if v != 2 {
			t.Fatalf("d2 = %v", d2)
		}
	}
	if Diff([]float64{1}, 1) != nil {
		t.Fatal("short series should return nil")
	}
}

func TestSeasonalDiff(t *testing.T) {
	xs := []float64{1, 2, 3, 11, 12, 13}
	sd := SeasonalDiff(xs, 3, 1)
	for _, v := range sd {
		if v != 10 {
			t.Fatalf("sd = %v", sd)
		}
	}
	if SeasonalDiff(xs, 6, 1) != nil {
		t.Fatal("period >= len should give nil")
	}
}

func TestACFWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	acf, err := ACF(xs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 {
		t.Fatalf("acf[0] = %v", acf[0])
	}
	band := ConfidenceBand(len(xs))
	for k := 1; k <= 20; k++ {
		if math.Abs(acf[k]) > 3*band {
			t.Fatalf("white noise acf[%d] = %v too large", k, acf[k])
		}
	}
}

func TestACFAR1(t *testing.T) {
	// AR(1) with phi=0.8: acf[k] ≈ 0.8^k.
	rng := rand.New(rand.NewSource(2))
	n := 20000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = 0.8*xs[i-1] + rng.NormFloat64()
	}
	acf, err := ACF(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		want := math.Pow(0.8, float64(k))
		if math.Abs(acf[k]-want) > 0.05 {
			t.Fatalf("acf[%d] = %v, want ~%v", k, acf[k], want)
		}
	}
	// PACF of AR(1): pacf[1] ≈ 0.8, pacf[k>1] ≈ 0.
	pacf, err := PACF(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pacf[1]-0.8) > 0.05 {
		t.Fatalf("pacf[1] = %v", pacf[1])
	}
	for k := 2; k <= 5; k++ {
		if math.Abs(pacf[k]) > 0.05 {
			t.Fatalf("pacf[%d] = %v, want ~0", k, pacf[k])
		}
	}
}

func TestACFErrors(t *testing.T) {
	if _, err := ACF([]float64{1}, 3); err == nil {
		t.Fatal("want short-series error")
	}
	if _, err := ACF([]float64{2, 2, 2, 2}, 2); err == nil {
		t.Fatal("want constant-series error")
	}
	// maxLag clamping.
	acf, err := ACF([]float64{1, 2, 1, 2, 1}, 100)
	if err != nil || len(acf) != 5 {
		t.Fatalf("clamp failed: %v %v", acf, err)
	}
}

func TestDecomposeRecoversSeasonal(t *testing.T) {
	// x_t = 10 + 0.01 t + s_{t mod 4} + tiny noise, period 4.
	season := []float64{1, -0.5, -1, 0.5}
	n := 200
	xs := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for t0 := 0; t0 < n; t0++ {
		xs[t0] = 10 + 0.01*float64(t0) + season[t0%4] + 0.01*rng.NormFloat64()
	}
	d, err := Decompose(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ph := 0; ph < 4; ph++ {
		if math.Abs(d.Seasonal[ph]-season[ph]) > 0.05 {
			t.Fatalf("seasonal[%d] = %v, want %v", ph, d.Seasonal[ph], season[ph])
		}
	}
	// Interior trend tracks 10+0.01t.
	for t0 := 10; t0 < n-10; t0++ {
		want := 10 + 0.01*float64(t0)
		if math.Abs(d.Trend[t0]-want) > 0.05 {
			t.Fatalf("trend[%d] = %v, want %v", t0, d.Trend[t0], want)
		}
	}
	if s := d.SeasonalStrength(); s < 0.9 {
		t.Fatalf("seasonal strength %v", s)
	}
	if s := d.TrendStrength(); s < 0.9 {
		t.Fatalf("trend strength %v", s)
	}
	// Identity on interior points.
	for t0 := 4; t0 < n-4; t0++ {
		sum := d.Trend[t0] + d.Seasonal[t0] + d.Remainder[t0]
		if math.Abs(sum-xs[t0]) > 1e-9 {
			t.Fatalf("decomposition identity broken at %d", t0)
		}
	}
}

func TestDecomposeOddPeriod(t *testing.T) {
	season := []float64{2, -1, -1}
	n := 60
	xs := make([]float64, n)
	for t0 := 0; t0 < n; t0++ {
		xs[t0] = 5 + season[t0%3]
	}
	d, err := Decompose(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for ph := 0; ph < 3; ph++ {
		if math.Abs(d.Seasonal[ph]-season[ph]) > 1e-9 {
			t.Fatalf("seasonal = %v", d.Seasonal[:3])
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(make([]float64, 10), 1); err == nil {
		t.Fatal("want period error")
	}
	if _, err := Decompose(make([]float64, 5), 4); err == nil {
		t.Fatal("want length error")
	}
}

func TestIsWeaklyStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	flat := make([]float64, 500)
	trended := make([]float64, 500)
	for i := range flat {
		flat[i] = rng.NormFloat64()
		trended[i] = float64(i)*0.1 + rng.NormFloat64()
	}
	if !IsWeaklyStationary(flat, 0.5) {
		t.Fatal("white noise judged non-stationary")
	}
	if IsWeaklyStationary(trended, 0.5) {
		t.Fatal("strong trend judged stationary")
	}
	if IsWeaklyStationary(make([]float64, 4), 0.5) {
		t.Fatal("too-short series should fail")
	}
	con := make([]float64, 100)
	if !IsWeaklyStationary(con, 0.5) {
		t.Fatal("constant series is trivially stationary")
	}
}

func TestConfidenceBand(t *testing.T) {
	if b := ConfidenceBand(400); math.Abs(b-1.96/20) > 1e-12 {
		t.Fatalf("band %v", b)
	}
	if !math.IsInf(ConfidenceBand(0), 1) {
		t.Fatal("zero-length band should be +Inf")
	}
}

func TestEventSeriesValues(t *testing.T) {
	es := &EventSeries{Events: []Event{{Hour: 1, Value: 5}, {Hour: 2, Value: 7}}}
	vs := es.Values()
	if len(vs) != 2 || vs[0] != 5 || vs[1] != 7 {
		t.Fatalf("values %v", vs)
	}
}

// TestResampleEdgeCases is the table test for the paths the event-driven
// fleet core leans on: empty series, a first event after the window start,
// duplicate-hour events (including duplicates at the very first timestamp),
// boundary-exact events, and non-finite starts.
func TestResampleEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		events  []Event
		start   float64
		n       int
		want    []float64 // nil = expect an error
		changes []int     // expected ResampleChanges slots (nil = none)
	}{
		{
			name:   "empty series errors",
			events: nil, start: 0, n: 4, want: nil,
		},
		{
			name:   "non-positive length errors",
			events: []Event{{Hour: 0, Value: 1}}, start: 0, n: 0, want: nil,
		},
		{
			name:   "NaN start errors",
			events: []Event{{Hour: 0, Value: 1}}, start: math.NaN(), n: 2, want: nil,
		},
		{
			name:   "Inf start errors",
			events: []Event{{Hour: 0, Value: 1}}, start: math.Inf(1), n: 2, want: nil,
		},
		{
			name:   "first event after start adopts its value",
			events: []Event{{Hour: 2.5, Value: 8}, {Hour: 4.1, Value: 9}},
			start:  0, n: 6,
			want:    []float64{8, 8, 8, 8, 8, 9},
			changes: []int{5},
		},
		{
			name: "duplicate events at the first timestamp: last wins pre-window too",
			events: []Event{
				{Hour: 1.5, Value: 3}, // superseded the instant it appears
				{Hour: 1.5, Value: 5},
				{Hour: 3.0, Value: 7},
			},
			start: 0, n: 5,
			want:    []float64{5, 5, 5, 7, 7},
			changes: []int{3},
		},
		{
			name: "duplicate-hour events mid-window: most recent wins",
			events: []Event{
				{Hour: 0, Value: 1},
				{Hour: 2.3, Value: 4},
				{Hour: 2.3, Value: 6},
			},
			start: 0, n: 4,
			want:    []float64{1, 1, 1, 6},
			changes: []int{3},
		},
		{
			name:   "event exactly at a slot boundary lands in that slot",
			events: []Event{{Hour: 0, Value: 2}, {Hour: 2, Value: 9}},
			start:  0, n: 4,
			want:    []float64{2, 2, 9, 9},
			changes: []int{2},
		},
		{
			name:   "events at and before start: most recent at start wins",
			events: []Event{{Hour: 1, Value: 2}, {Hour: 5, Value: 4}, {Hour: 5, Value: 6}},
			start:  5, n: 3,
			want: []float64{6, 6, 6},
		},
		{
			name:   "constant series yields no changes",
			events: []Event{{Hour: 0, Value: 3}, {Hour: 2.5, Value: 3}},
			start:  0, n: 5,
			want: []float64{3, 3, 3, 3, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			es := &EventSeries{Events: tc.events}
			got, err := es.Resample(tc.start, tc.n)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("Resample: no error, got %v", got)
				}
				if _, _, err2 := es.ResampleChanges(tc.start, tc.n); err2 == nil {
					t.Fatal("ResampleChanges: no error")
				}
				return
			}
			if err != nil {
				t.Fatalf("Resample: %v", err)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("Resample = %v, want %v", got, tc.want)
				}
			}
			vals, changes, err := es.ResampleChanges(tc.start, tc.n)
			if err != nil {
				t.Fatalf("ResampleChanges: %v", err)
			}
			for i := range tc.want {
				if vals[i] != tc.want[i] {
					t.Fatalf("ResampleChanges values = %v, want %v", vals, tc.want)
				}
			}
			if len(changes) != len(tc.changes) {
				t.Fatalf("changes = %v, want %v", changes, tc.changes)
			}
			for i := range changes {
				if changes[i] != tc.changes[i] {
					t.Fatalf("changes = %v, want %v", changes, tc.changes)
				}
			}
			// The change list must be exactly the slots where the value moves.
			for s := 1; s < tc.n; s++ {
				moved := vals[s] != vals[s-1]
				listed := false
				for _, c := range changes {
					if c == s {
						listed = true
					}
				}
				if moved != listed {
					t.Fatalf("slot %d: moved=%v listed=%v (changes %v, vals %v)", s, moved, listed, changes, vals)
				}
			}
		})
	}
}
