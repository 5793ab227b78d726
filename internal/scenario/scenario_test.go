package scenario

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rentplan/internal/stats"
)

func baseDist() stats.Discrete {
	return stats.Discrete{
		Values: []float64{0.056, 0.058, 0.060, 0.062, 0.064},
		Probs:  []float64{0.1, 0.2, 0.4, 0.2, 0.1},
	}
}

func TestBidAdjustedEq10(t *testing.T) {
	// Bid 0.060: keep the first three states; tail mass 0.3 → λ state.
	d, oob, err := BidAdjusted(baseDist(), 0.060, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(oob-0.3) > 1e-12 {
		t.Fatalf("oob = %v, want 0.3", oob)
	}
	if d.Len() != 4 {
		t.Fatalf("support %v", d.Values)
	}
	if d.Values[3] != 0.2 {
		t.Fatalf("λ state missing: %v", d.Values)
	}
	if math.Abs(d.TotalMass()-1) > 1e-12 {
		t.Fatalf("mass %v", d.TotalMass())
	}
}

func TestBidAdjustedHighBidNoOOB(t *testing.T) {
	d, oob, err := BidAdjusted(baseDist(), 1.0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if oob != 0 || d.Len() != 5 {
		t.Fatalf("oob=%v support=%v", oob, d.Values)
	}
}

func TestBidAdjustedLowBidAllOOB(t *testing.T) {
	// Bid below every observed price: a single certain out-of-bid state.
	d, oob, err := BidAdjusted(baseDist(), 0.01, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(oob-1) > 1e-12 || d.Len() != 1 || d.Values[0] != 0.2 {
		t.Fatalf("oob=%v d=%v", oob, d)
	}
}

func TestBidAdjustedErrors(t *testing.T) {
	if _, _, err := BidAdjusted(stats.Discrete{}, 1, 1); err == nil {
		t.Fatal("want empty-base error")
	}
	if _, _, err := BidAdjusted(baseDist(), 1, 0); err == nil {
		t.Fatal("want on-demand error")
	}
}

func TestBuildBalancedTree(t *testing.T) {
	bids := []float64{0.060, 0.060, 0.060}
	tr, err := Build(baseDist(), bids, 0.2, BuildConfig{Stages: 3, RootPrice: 0.059})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 states per stage (3 kept + OOB): 1 + 4 + 16 + 64 vertices.
	if tr.N() != 1+4+16+64 {
		t.Fatalf("N = %d", tr.N())
	}
	if tr.Stages() != 4 {
		t.Fatalf("stages %d", tr.Stages())
	}
	if len(tr.Leaves()) != 64 {
		t.Fatalf("leaves %d", len(tr.Leaves()))
	}
	// Root path of a leaf has one vertex per stage.
	p := tr.Path(tr.Leaves()[0])
	if len(p) != 4 || p[0] != 0 {
		t.Fatalf("path %v", p)
	}
	// Per-stage out-of-bid probability equals the truncated tail (0.3).
	for s := 1; s <= 3; s++ {
		if math.Abs(tr.OutOfBidProb(s)-0.3) > 1e-9 {
			t.Fatalf("stage %d OOB prob %v", s, tr.OutOfBidProb(s))
		}
	}
	if tr.OutOfBidProb(0) != 0 {
		t.Fatal("root cannot be out of bid")
	}
}

func TestBuildBranchCap(t *testing.T) {
	bids := []float64{0.060, 0.060}
	tr, err := Build(baseDist(), bids, 0.2, BuildConfig{Stages: 2, MaxBranch: 3, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 states per stage (2 aggregated + OOB): 1 + 3 + 9.
	if tr.N() != 13 {
		t.Fatalf("N = %d", tr.N())
	}
	// Aggregation must preserve the expected stage price.
	full, _, _ := BidAdjusted(baseDist(), 0.060, 0.2)
	if math.Abs(tr.ExpectedPrice(1)-full.Mean()) > 1e-9 {
		t.Fatalf("expected price %v, want %v", tr.ExpectedPrice(1), full.Mean())
	}
}

func TestBuildVaryingBids(t *testing.T) {
	// Later stages bid lower → larger OOB probability.
	bids := []float64{0.064, 0.056}
	tr, err := Build(baseDist(), bids, 0.2, BuildConfig{Stages: 2, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.OutOfBidProb(1) != 0 {
		t.Fatalf("stage 1 should have no OOB: %v", tr.OutOfBidProb(1))
	}
	if math.Abs(tr.OutOfBidProb(2)-0.9) > 1e-9 {
		t.Fatalf("stage 2 OOB %v, want 0.9", tr.OutOfBidProb(2))
	}
}

func TestBuildErrors(t *testing.T) {
	b := baseDist()
	if _, err := Build(b, nil, 0.2, BuildConfig{Stages: 0, RootPrice: 1}); err == nil {
		t.Fatal("want stages error")
	}
	if _, err := Build(b, []float64{1}, 0.2, BuildConfig{Stages: 2, RootPrice: 1}); err == nil {
		t.Fatal("want bids length error")
	}
	if _, err := Build(b, []float64{1}, 0.2, BuildConfig{Stages: 1}); err == nil {
		t.Fatal("want root price error")
	}
	if _, err := Build(stats.Discrete{}, []float64{1}, 0.2, BuildConfig{Stages: 1, RootPrice: 1}); err == nil {
		t.Fatal("want base error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr, err := Build(baseDist(), []float64{0.06}, 0.2, BuildConfig{Stages: 1, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	bad := *tr
	bad.Prob = append([]float64(nil), tr.Prob...)
	bad.Prob[1] *= 2
	if err := bad.Validate(); err == nil {
		t.Fatal("want mass error")
	}
	bad2 := *tr
	bad2.Price = append([]float64(nil), tr.Price...)
	bad2.Price[0] = -1
	if err := bad2.Validate(); err == nil {
		t.Fatal("want price error")
	}
	if err := (&Tree{}).Validate(); err == nil {
		t.Fatal("want empty error")
	}
}

// TestValidateReportsLowestBadStage pins a deterministic report: stage
// masses used to be summed into a map and the first bad stage returned in
// map order, so this chain named stage 1, 2 or 3 at random.
func TestValidateReportsLowestBadStage(t *testing.T) {
	tr := &Tree{
		Parent:   []int{-1, 0, 1, 2},
		Prob:     []float64{1, 0.5, 0.5, 0.5},
		Stage:    []int{0, 1, 2, 3},
		Price:    []float64{1, 1, 1, 1},
		OutOfBid: make([]bool, 4),
	}
	for i := 0; i < 100; i++ {
		if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "stage 1 probability mass") {
			t.Fatalf("call %d: %v, want the stage 1 mass error", i, err)
		}
	}
}

// TestBuildSizesSlicesOnce checks that Build counts its vertices up front:
// every slice of the tree is exactly as long as its capacity.
func TestBuildSizesSlicesOnce(t *testing.T) {
	tr, err := Build(baseDist(), []float64{0.061, 0.061, 0.061, 0.061}, 0.2, BuildConfig{Stages: 4, MaxBranch: 3, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.N() != 121 {
		t.Fatalf("N = %d, want 121", tr.N())
	}
	caps := []int{cap(tr.Parent), cap(tr.Prob), cap(tr.Stage), cap(tr.Price), cap(tr.OutOfBid)}
	for i, c := range caps {
		if c != tr.N() {
			t.Errorf("slice %d has capacity %d for %d vertices", i, c, tr.N())
		}
	}
}

func TestSampleScenarioRespectsProbabilities(t *testing.T) {
	tr, err := Build(baseDist(), []float64{0.058}, 0.2, BuildConfig{Stages: 1, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	// Stage-1 states: 0.056 (p .1/1), 0.058 (p .2), OOB 0.2 (p .7).
	rng := stats.NewRNG(1)
	counts := map[float64]int{}
	n := 20000
	for i := 0; i < n; i++ {
		path := tr.SampleScenario(rng)
		if len(path) != 2 || path[0] != 0.06 {
			t.Fatalf("path %v", path)
		}
		counts[path[1]]++
	}
	if f := float64(counts[0.2]) / float64(n); math.Abs(f-0.7) > 0.02 {
		t.Fatalf("OOB frequency %v, want ~0.7", f)
	}
	if f := float64(counts[0.056]) / float64(n); math.Abs(f-0.1) > 0.02 {
		t.Fatalf("0.056 frequency %v, want ~0.1", f)
	}
}

func TestExpectedPriceIncludesOOBPenalty(t *testing.T) {
	// Lower bids push expected stage price UP (more λ mass): the planner
	// sees the risk of losing the auction.
	low, err := Build(baseDist(), []float64{0.056}, 0.2, BuildConfig{Stages: 1, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Build(baseDist(), []float64{0.064}, 0.2, BuildConfig{Stages: 1, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if low.ExpectedPrice(1) <= high.ExpectedPrice(1) {
		t.Fatalf("expected price with low bid %v should exceed high bid %v",
			low.ExpectedPrice(1), high.ExpectedPrice(1))
	}
}

func TestQuickTreeInvariants(t *testing.T) {
	// Property test: for arbitrary bids and branch caps, built trees always
	// validate, conserve per-stage probability mass, and keep expected
	// stage prices within [min kept price, on-demand rate].
	f := func(rawBid float64, branch uint8, stages uint8) bool {
		b := 0.054 + math.Mod(math.Abs(rawBid), 0.02) // bids across the support
		st := int(stages%4) + 1
		mb := int(branch % 6)
		bids := make([]float64, st)
		for i := range bids {
			bids[i] = b
		}
		tr, err := Build(baseDist(), bids, 0.2, BuildConfig{
			Stages: st, MaxBranch: mb, RootPrice: 0.06,
		})
		if err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		for s := 1; s <= st; s++ {
			ep := tr.ExpectedPrice(s)
			if ep < 0.056-1e-9 || ep > 0.2+1e-9 {
				return false
			}
			oob := tr.OutOfBidProb(s)
			if oob < -1e-9 || oob > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
