package market

import (
	"math"
	"testing"

	"rentplan/internal/stats"
	"rentplan/internal/timeseries"
)

func TestAmazonPricingValues(t *testing.T) {
	p := AmazonPricing()
	want := map[VMClass]float64{C1Medium: 0.2, M1Large: 0.4, M1XLarge: 0.8}
	for c, v := range want {
		if p.OnDemand[c] != v {
			t.Errorf("OnDemand[%s] = %v, want %v", c, p.OnDemand[c], v)
		}
	}
	if p.TransferInPerGB != 0.1 || p.TransferOutPerGB != 0.17 {
		t.Errorf("transfer prices wrong: %+v", p)
	}
	if math.Abs(p.StoragePerGBHour-0.1/730) > 1e-12 {
		t.Errorf("storage rate %v", p.StoragePerGBHour)
	}
	h := p.HoldingPerGBHour()
	if math.Abs(h-(0.2+0.1/730)) > 1e-12 {
		t.Errorf("holding %v", h)
	}
}

func TestDefaultGenConfigUnknownClass(t *testing.T) {
	if _, err := DefaultGenConfig(VMClass("t2.nano")); err == nil {
		t.Fatal("want unknown-class error")
	}
	if _, err := NewGenerator(VMClass("bogus"), 1); err == nil {
		t.Fatal("want unknown-class error from NewGenerator")
	}
}

func TestTraceDeterministic(t *testing.T) {
	g1, _ := NewGenerator(C1Medium, 42)
	g2, _ := NewGenerator(C1Medium, 42)
	t1 := g1.Trace(30)
	t2 := g2.Trace(30)
	if len(t1.Events.Events) != len(t2.Events.Events) {
		t.Fatal("same seed produced different traces")
	}
	for i := range t1.Events.Events {
		if t1.Events.Events[i] != t2.Events.Events[i] {
			t.Fatal("same seed produced different events")
		}
	}
	g3, _ := NewGenerator(C1Medium, 43)
	t3 := g3.Trace(30)
	if len(t3.Events.Events) == len(t1.Events.Events) {
		same := true
		for i := range t1.Events.Events {
			if t1.Events.Events[i] != t3.Events.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestTraceBasicInvariants(t *testing.T) {
	for _, class := range AllClasses() {
		g, err := NewGenerator(class, 7)
		if err != nil {
			t.Fatal(err)
		}
		tr := g.Trace(120)
		if !tr.Events.Sorted() {
			t.Fatalf("%s: events unsorted", class)
		}
		cap := g.Cfg.OnDemandCap
		last := -1.0
		for _, e := range tr.Events.Events {
			if e.Value <= 0 || e.Value > cap+1e-12 {
				t.Fatalf("%s: price %v outside (0, %v]", class, e.Value, cap)
			}
			if e.Value == last {
				t.Fatalf("%s: consecutive duplicate price %v", class, e.Value)
			}
			// Prices land on the tick grid.
			q := e.Value / g.Cfg.Quantum
			if math.Abs(q-math.Round(q)) > 1e-6 {
				t.Fatalf("%s: price %v off the tick grid", class, e.Value)
			}
			if e.Hour < 0 || e.Hour > 120*24 {
				t.Fatalf("%s: event hour %v out of range", class, e.Hour)
			}
			last = e.Value
		}
	}
}

func TestReferenceTracesMatchPaperStatistics(t *testing.T) {
	trs, err := ReferenceTraces()
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 4 {
		t.Fatalf("expected 4 classes, got %d", len(trs))
	}
	// Fig. 3 property: outliers (1.5·IQR rule) contribute a trivial share of
	// the update series — below 3% for every class, fewest for the cheapest.
	fracs := map[VMClass]float64{}
	for class, tr := range trs {
		f := stats.BoxWhisker(tr.Events.Values())
		fracs[class] = f.OutlierFrac()
		if f.OutlierFrac() > 0.032 {
			t.Errorf("%s: outlier fraction %.3f > 3%%", class, f.OutlierFrac())
		}
		if f.N < 1000 {
			t.Errorf("%s: only %d events over %d days", class, f.N, tr.Days)
		}
	}
	if fracs[C1Medium] > fracs[C1XLarge] {
		t.Errorf("outlier ordering: c1.medium %.3f should be below c1.xlarge %.3f",
			fracs[C1Medium], fracs[C1XLarge])
	}
	// Spot prices sit well below on-demand (paper: "much lower price").
	p := AmazonPricing()
	for class, tr := range trs {
		med := stats.Quantile(tr.Events.Values(), 0.5)
		if med > 0.5*p.OnDemand[class] {
			t.Errorf("%s: median spot %v not well below on-demand %v", class, med, p.OnDemand[class])
		}
	}
}

func TestReferenceWindowNonNormalWeaklyCorrelated(t *testing.T) {
	trs, err := ReferenceTraces()
	if err != nil {
		t.Fatal(err)
	}
	tr := trs[C1Medium]
	hourly, err := tr.Hourly(0, ReferenceDays*24)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's two-month estimation window, [12/1/2010, 1/31/2011],
	// sits at days ~305..365 of the trace.
	win := hourly[305*24 : 366*24]
	// Fig. 5: normality is rejected.
	sw, err := stats.ShapiroWilk(win[:1400])
	if err != nil {
		t.Fatal(err)
	}
	if !sw.Rejects(0.01) {
		t.Errorf("window passed Shapiro-Wilk (p=%v); paper rejects normality", sw.PValue)
	}
	// Fig. 7: some correlation above the 95% band at small lags, but far
	// from perfect correlation.
	acf, err := timeseries.ACF(win, 26)
	if err != nil {
		t.Fatal(err)
	}
	band := timeseries.ConfidenceBand(len(win))
	if acf[3] < band {
		t.Errorf("acf[3] = %v below band %v; paper reports weak-but-present correlation", acf[3], band)
	}
	if acf[3] > 0.9 {
		t.Errorf("acf[3] = %v too close to 1; paper reports weak correlation", acf[3])
	}
	// Fig. 6: stationary, no strong trend.
	if !timeseries.IsWeaklyStationary(win, 0.5) {
		t.Error("window not weakly stationary")
	}
	d, err := timeseries.Decompose(win, 24)
	if err != nil {
		t.Fatal(err)
	}
	if s := d.SeasonalStrength(); s <= 0 || s > 0.5 {
		t.Errorf("seasonal strength %v; want mild cyclic component", s)
	}
}

func TestDailyUpdateFrequencyVaries(t *testing.T) {
	trs, err := ReferenceTraces()
	if err != nil {
		t.Fatal(err)
	}
	counts := trs[C1Medium].Events.DailyUpdateCounts(0, ReferenceDays)
	mn, mx, sum := counts[0], counts[0], 0
	for _, c := range counts {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
		sum += c
	}
	if mx-mn < 10 {
		t.Errorf("daily update counts too flat: min=%d max=%d", mn, mx)
	}
	mean := float64(sum) / float64(len(counts))
	if mean < 2 || mean > 30 {
		t.Errorf("mean daily updates %v outside plausible range", mean)
	}
}

func TestHourlyResampleLength(t *testing.T) {
	g, _ := NewGenerator(M1Large, 3)
	tr := g.Trace(10)
	h, err := tr.Hourly(0, 240)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 240 {
		t.Fatalf("len %d", len(h))
	}
	for _, v := range h {
		if v <= 0 {
			t.Fatalf("non-positive hourly price %v", v)
		}
	}
}

func TestPoissonHelper(t *testing.T) {
	rng := stats.NewRNG(5)
	// Mean of Poisson(4) over many draws ~ 4.
	n := 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, 4)
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-4) > 0.1 {
		t.Fatalf("poisson mean %v", mean)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("nonpositive lambda should give 0")
	}
}

func TestClassLists(t *testing.T) {
	if len(AllClasses()) != 4 || len(PlanningClasses()) != 3 {
		t.Fatal("class list sizes wrong")
	}
	for _, c := range PlanningClasses() {
		if _, err := DefaultGenConfig(c); err != nil {
			t.Fatalf("planning class %s lacks generator config", c)
		}
	}
}

func TestFederationMinPrices(t *testing.T) {
	f, err := NewFederation(C1Medium, 3, 30, 51)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Providers) != 3 {
		t.Fatalf("providers %d", len(f.Providers))
	}
	minP, who, err := f.HourlyMin(0, 30*24)
	if err != nil {
		t.Fatal(err)
	}
	// The min can never exceed any single provider's price.
	for i, tr := range f.Providers {
		h, err := tr.Hourly(0, 30*24)
		if err != nil {
			t.Fatal(err)
		}
		for tt := range h {
			if minP[tt] > h[tt]+1e-12 {
				t.Fatalf("slot %d: min %v exceeds provider %d price %v", tt, minP[tt], i, h[tt])
			}
			if who[tt] == i && math.Abs(minP[tt]-h[tt]) > 1e-12 {
				t.Fatalf("slot %d: winner %d price mismatch", tt, i)
			}
		}
	}
	// Multiple providers should actually alternate.
	if SwitchCount(who) == 0 {
		t.Fatal("winning provider never changes")
	}
	// Bigger coalition → lower (or equal) mean price.
	single, err := NewFederation(C1Medium, 1, 30, 51)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := single.HourlyMin(0, 30*24)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mean(minP) > stats.Mean(p1)+1e-12 {
		t.Fatalf("federation mean %v above single-provider mean %v", stats.Mean(minP), stats.Mean(p1))
	}
}

func TestFederationErrors(t *testing.T) {
	if _, err := NewFederation(C1Medium, 0, 10, 1); err == nil {
		t.Fatal("want provider-count error")
	}
	if _, err := NewFederation(VMClass("zzz"), 2, 10, 1); err == nil {
		t.Fatal("want class error")
	}
	empty := &Federation{}
	if _, _, err := empty.HourlyMin(0, 10); err == nil {
		t.Fatal("want empty error")
	}
	if SwitchCount(nil) != 0 {
		t.Fatal("empty switch count")
	}
}

// TestHourlyChangesMatchesHourly pins the change feed against the plain
// resample: values bit-identical, and the change list exactly the slots
// where the hourly price moves.
func TestHourlyChangesMatchesHourly(t *testing.T) {
	g, err := NewGenerator(C1Medium, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Trace(14)
	n := 14 * 24
	plain, err := tr.Hourly(0, n)
	if err != nil {
		t.Fatal(err)
	}
	vals, changes, err := tr.HourlyChanges(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if vals[i] != plain[i] {
			t.Fatalf("slot %d: HourlyChanges %v != Hourly %v", i, vals[i], plain[i])
		}
	}
	ci := 0
	for s := 1; s < n; s++ {
		moved := vals[s] != vals[s-1]
		listed := ci < len(changes) && changes[ci] == s
		if listed {
			ci++
		}
		if moved != listed {
			t.Fatalf("slot %d: moved=%v listed=%v", s, moved, listed)
		}
	}
	if ci != len(changes) {
		t.Fatalf("change list has %d extra entries", len(changes)-ci)
	}
	if len(changes) == 0 {
		t.Fatal("a 14-day trace should move at least once")
	}
}

// TestClampPrice pins the feedback clamp to the auction's own band.
func TestClampPrice(t *testing.T) {
	cfg, err := DefaultGenConfig(M1Large)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.ClampPrice(1e9); got != cfg.OnDemandCap {
		t.Fatalf("high clamp = %v, want %v", got, cfg.OnDemandCap)
	}
	if got := cfg.ClampPrice(0); got != cfg.Quantum {
		t.Fatalf("low clamp = %v, want %v", got, cfg.Quantum)
	}
	if got := cfg.ClampPrice(cfg.BaseSpot); got != cfg.BaseSpot {
		t.Fatalf("in-band clamp moved %v to %v", cfg.BaseSpot, got)
	}
}
