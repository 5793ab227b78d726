package demand

import (
	"math"
	"testing"
)

func TestTruncNormalProperties(t *testing.T) {
	p := NewTruncNormal(0.4, 0.2, 1)
	xs := Series(p, 5000)
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			t.Fatalf("non-positive demand %v", x)
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	// Positive-truncated N(0.4,0.2) has mean slightly above 0.4.
	if mean < 0.38 || mean > 0.46 {
		t.Fatalf("mean %v", mean)
	}
	// Memoisation: At is stable.
	if p.At(17) != p.At(17) {
		t.Fatal("At not deterministic")
	}
	// Same seed reproduces the same series.
	q := NewTruncNormal(0.4, 0.2, 1)
	for i := 0; i < 100; i++ {
		if p.At(i) != q.At(i) {
			t.Fatal("seeded processes diverge")
		}
	}
}

func TestDiurnalCycle(t *testing.T) {
	p := Diurnal{Base: 1, Amp: 0.5}
	// Period 24: At(t) == At(t+24).
	for tt := 0; tt < 24; tt++ {
		if p.At(tt) != p.At(tt+24) {
			t.Fatalf("not periodic at %d", tt)
		}
		if p.At(tt) < 0 {
			t.Fatalf("negative demand at %d", tt)
		}
	}
	// Peak at t=6 (sin max), trough at t=18.
	if !(p.At(6) > p.At(0) && p.At(6) > p.At(18)) {
		t.Fatalf("cycle shape wrong: %v %v %v", p.At(0), p.At(6), p.At(18))
	}
	// Amp > 1 clamps at zero.
	deep := Diurnal{Base: 1, Amp: 2}
	if deep.At(18) != 0 {
		t.Fatalf("clamp failed: %v", deep.At(18))
	}
	// Phase shifts the cycle.
	ph := Diurnal{Base: 1, Amp: 0.5, Phase: 6}
	if ph.At(12) != p.At(6) {
		t.Fatal("phase shift wrong")
	}
}

func TestSeriesLength(t *testing.T) {
	xs := Series(Diurnal{Base: 1}, 7)
	if len(xs) != 7 {
		t.Fatalf("len %d", len(xs))
	}
	if s := Series(Diurnal{Base: 1}, 0); len(s) != 0 {
		t.Fatal("empty series")
	}
	if math.IsNaN(xs[0]) {
		t.Fatal("NaN demand")
	}
}
