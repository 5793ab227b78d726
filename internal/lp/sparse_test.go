package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomMixedLP builds a random LP with structural sparsity and a mix of row
// relations and bound shapes, so the fuzz hits optimal, infeasible, and
// unbounded outcomes.
func randomMixedLP(rng *rand.Rand, n, m int) *Problem {
	p := &Problem{
		C:     make([]float64, n),
		Lower: make([]float64, n),
		Upper: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.Float64()*2 - 1
		switch {
		case rng.Float64() < 0.05:
			p.Lower[j] = math.Inf(-1)
			p.Upper[j] = math.Inf(1)
		case rng.Float64() < 0.15:
			p.Lower[j] = -1
			p.Upper[j] = 5
		case rng.Float64() < 0.15:
			p.Upper[j] = math.Inf(1)
		default:
			p.Upper[j] = 1 + 4*rng.Float64()
		}
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		nzCount := 0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				row[j] = rng.Float64()*4 - 2
				nzCount++
			}
		}
		if nzCount == 0 {
			row[rng.Intn(n)] = 1
		}
		rel := LE
		switch r := rng.Float64(); {
		case r < 0.25:
			rel = GE
		case r < 0.40:
			rel = EQ
		}
		p.AddRow(row, rel, rng.Float64()*3-1)
	}
	return p
}

// certifyFarkas checks that y is a valid infeasibility certificate for p:
// with the rows written as Ax + s = b (s ≥ 0 for LE, s ≤ 0 for GE, s = 0 for
// EQ), yᵀb must strictly exceed the supremum of yᵀ(Ax + s) over the variable
// bounds and slack sign domains — which requires the slack terms' sup to be
// finite (sign conditions on y) and the bound terms' sup finite too.
func certifyFarkas(t *testing.T, p *Problem, y []float64) {
	t.Helper()
	n := p.NumVars()
	if len(y) != p.NumRows() {
		t.Fatalf("ray length %d for %d rows", len(y), p.NumRows())
	}
	v := make([]float64, n)
	for i := 0; i < p.NumRows(); i++ {
		r := &p.SA[i]
		for k, j := range r.Ix {
			v[j] += y[i] * r.V[k]
		}
	}
	const tol = 1e-9
	sup := 0.0
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		switch {
		case v[j] > tol:
			if math.IsInf(hi, 1) {
				t.Fatalf("ray not certified: v[%d]=%g with infinite upper bound", j, v[j])
			}
			sup += v[j] * hi
		case v[j] < -tol:
			if math.IsInf(lo, -1) {
				t.Fatalf("ray not certified: v[%d]=%g with infinite lower bound", j, v[j])
			}
			sup += v[j] * lo
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		switch p.Rel[i] {
		case LE:
			if y[i] > tol {
				t.Fatalf("ray not certified: y[%d]=%g > 0 on a LE row (slack sup infinite)", i, y[i])
			}
		case GE:
			if y[i] < -tol {
				t.Fatalf("ray not certified: y[%d]=%g < 0 on a GE row (slack sup infinite)", i, y[i])
			}
		}
	}
	lhs := 0.0
	for i, b := range p.B {
		lhs += y[i] * b
	}
	if lhs <= sup+1e-9 {
		t.Fatalf("ray fails to separate: yᵀb=%g vs achievable sup %g", lhs, sup)
	}
}

// TestSparseDenseAgreementFuzz solves 120 random LPs under both pricing
// modes, candidate-list and full Dantzig pricing, both over the triangular
// peel's factors. The two may
// pivot differently, so only the status and the optimum must agree, and
// every infeasible verdict must carry a certified Farkas ray.
func TestSparseDenseAgreementFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	statusCount := map[Status]int{}
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(19)
		m := 1 + rng.Intn(14)
		p := randomMixedLP(rng, n, m)
		cand, err := SolveWithOptions(p, Options{})
		if err != nil {
			t.Fatalf("trial %d candidate pricing: %v", trial, err)
		}
		full, err := SolveWithOptions(p, Options{FullPricing: true})
		if err != nil {
			t.Fatalf("trial %d full pricing: %v", trial, err)
		}
		statusCount[cand.Status]++
		if cand.Status != full.Status {
			t.Fatalf("trial %d: candidate pricing %v vs full pricing %v", trial, cand.Status, full.Status)
		}
		if cand.Status == StatusOptimal {
			if diff := math.Abs(cand.Obj - full.Obj); diff > 1e-7*(1+math.Abs(full.Obj)) {
				t.Fatalf("trial %d: objective %v (candidate) vs %v (full)", trial, cand.Obj, full.Obj)
			}
		}
		if cand.Status == StatusInfeasible {
			for _, sol := range []*Solution{cand, full} {
				if sol.FarkasRay == nil {
					t.Fatalf("trial %d: infeasible without a Farkas ray", trial)
				}
				certifyFarkas(t, p, sol.FarkasRay)
			}
		}
	}
	// The generator must actually exercise more than one outcome class.
	if len(statusCount) < 2 {
		t.Fatalf("fuzz generator degenerate: statuses %v", statusCount)
	}
}

func TestValidateSparseErrors(t *testing.T) {
	base := func() *Problem {
		return &Problem{
			C:   []float64{1, 1, 1},
			SA:  []SparseRow{{Ix: []int{0, 2}, V: []float64{1, -1}}},
			Rel: []Rel{LE},
			B:   []float64{1},
		}
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed sparse problem rejected: %v", err)
	}

	ragged := base()
	ragged.SA[0].V = ragged.SA[0].V[:1]
	if err := ragged.Validate(); err == nil {
		t.Fatal("want Ix/V length mismatch error")
	}

	unsorted := base()
	unsorted.SA[0] = SparseRow{Ix: []int{2, 0}, V: []float64{1, 1}}
	if err := unsorted.Validate(); err == nil {
		t.Fatal("want non-increasing index error")
	}

	dup := base()
	dup.SA[0] = SparseRow{Ix: []int{1, 1}, V: []float64{1, 1}}
	if err := dup.Validate(); err == nil {
		t.Fatal("want duplicate-index error")
	}

	oob := base()
	oob.SA[0] = SparseRow{Ix: []int{0, 3}, V: []float64{1, 1}}
	if err := oob.Validate(); err == nil {
		t.Fatal("want out-of-range index error")
	}

	nan := base()
	nan.SA[0] = SparseRow{Ix: []int{0}, V: []float64{math.NaN()}}
	if err := nan.Validate(); err == nil {
		t.Fatal("want NaN coefficient error")
	}

	mismatch := base()
	mismatch.B = append(mismatch.B, 2)
	mismatch.Rel = append(mismatch.Rel, LE)
	if err := mismatch.Validate(); err == nil {
		t.Fatal("want row-count mismatch error")
	}
}

func TestNewSparseRowNormalises(t *testing.T) {
	r := NewSparseRow([]int{3, 1, 3, 2, 0}, []float64{1, 2, -1, 0, 4})
	// Column 3 cancels to zero and column 2 is an explicit zero; both drop.
	wantIx := []int{0, 1}
	wantV := []float64{4, 2}
	if len(r.Ix) != len(wantIx) {
		t.Fatalf("got %v/%v", r.Ix, r.V)
	}
	for k := range wantIx {
		if r.Ix[k] != wantIx[k] || r.V[k] != wantV[k] {
			t.Fatalf("entry %d: got (%d,%v) want (%d,%v)", k, r.Ix[k], r.V[k], wantIx[k], wantV[k])
		}
	}
}

// TestRowHelpersAgreeAcrossRepresentations checks NNZ, RowDot and
// RowAbsSum on rows built by DenseRows against the dense rows they came
// from.
func TestRowHelpersAgreeAcrossRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, m = 12, 8
	dense := make([][]float64, m)
	nnz := 0
	for i := range dense {
		dense[i] = make([]float64, n)
		for j := range dense[i] {
			if rng.Float64() < 0.4 {
				dense[i][j] = rng.Float64()*4 - 2
				nnz++
			}
		}
	}
	p := &Problem{C: make([]float64, n), SA: DenseRows(dense), Rel: make([]Rel, m), B: make([]float64, m)}
	if got := p.NNZ(); got != nnz {
		t.Fatalf("NNZ %d, want %d", got, nnz)
	}
	x := make([]float64, n)
	for j := range x {
		x[j] = rng.Float64()*2 - 1
	}
	for i, row := range dense {
		dot, abs := 0.0, 0.0
		for j, a := range row {
			dot += a * x[j]
			abs += math.Abs(a)
		}
		if got := p.RowDot(i, x); math.Abs(got-dot) > 1e-12 {
			t.Fatalf("RowDot(%d): %v, want %v", i, got, dot)
		}
		if got := p.RowAbsSum(i); math.Abs(got-abs) > 1e-12 {
			t.Fatalf("RowAbsSum(%d): %v, want %v", i, got, abs)
		}
	}
}

// TestAddRowAndAddSparseRowEquivalent builds the same two rows once through
// AddRow and once through AddSparseRow: the stored rows, and so the
// solves, must be identical.
func TestAddRowAndAddSparseRowEquivalent(t *testing.T) {
	mk := func() *Problem {
		return &Problem{
			C:     []float64{1, 2, 3},
			Lower: make([]float64, 3),
			Upper: []float64{4, 4, 4},
		}
	}
	d, s := mk(), mk()
	d.AddRow([]float64{1, 0, -1}, LE, 2)
	d.AddRow([]float64{2, 0, 1}, GE, 1)
	s.AddSparseRow([]int{2, 0}, []float64{-1, 1}, LE, 2)
	s.AddSparseRow([]int{2, 0, 0}, []float64{1, 1, 1}, GE, 1)
	for _, p := range []*Problem{d, s} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumRows() != 2 || s.NumRows() != 2 || d.NNZ() != s.NNZ() {
		t.Fatalf("row/nnz mismatch: %d/%d rows, %d/%d nnz", d.NumRows(), s.NumRows(), d.NNZ(), s.NNZ())
	}
	// AddSparseRow must have sorted the columns and summed the duplicate 0s.
	for i := range d.SA {
		if !reflect.DeepEqual(d.SA[i], s.SA[i]) {
			t.Fatalf("row %d: AddRow stored %+v, AddSparseRow %+v", i, d.SA[i], s.SA[i])
		}
	}
	sd, err := Solve(d)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Status != ss.Status || sd.Obj != ss.Obj {
		t.Fatalf("(%v, %v) vs (%v, %v)", sd.Status, sd.Obj, ss.Status, ss.Obj)
	}
}

// TestSolutionCounters checks the pricing instrumentation: full pricing
// sweeps every pivot and never uses the candidate list, while candidate-list
// pricing resolves most pivots from the list and sweeps far less often.
func TestSolutionCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomLP(rng, 60, 30)
	full, err := SolveWithOptions(p, Options{FullPricing: true})
	if err != nil {
		t.Fatal(err)
	}
	cand, err := SolveWithOptions(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != StatusOptimal || cand.Status != StatusOptimal {
		t.Fatalf("statuses %v / %v", full.Status, cand.Status)
	}
	if full.NNZ == 0 || full.NNZ != cand.NNZ {
		t.Fatalf("NNZ %d vs %d", full.NNZ, cand.NNZ)
	}
	if full.CandidateHits != 0 {
		t.Fatalf("full pricing reported %d candidate hits", full.CandidateHits)
	}
	if full.PricingSweeps < full.Iterations {
		t.Fatalf("full pricing: %d sweeps for %d pivots", full.PricingSweeps, full.Iterations)
	}
	if cand.CandidateHits == 0 {
		t.Fatal("candidate pricing never drew from the list on a 60-var LP")
	}
	if cand.PricingSweeps >= full.PricingSweeps {
		t.Fatalf("candidate pricing swept %d times, full pricing %d", cand.PricingSweeps, full.PricingSweeps)
	}
}

func TestFarkasRaySparseBacked(t *testing.T) {
	// x ≥ 5 and x ≤ 3 with x ∈ [0, 10]: infeasible, as in TestFarkasRaySeparates.
	p := &Problem{
		C:     []float64{0},
		SA:    []SparseRow{{Ix: []int{0}, V: []float64{1}}, {Ix: []int{0}, V: []float64{1}}},
		Rel:   []Rel{GE, LE},
		B:     []float64{5, 3},
		Upper: []float64{10},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible || sol.FarkasRay == nil {
		t.Fatalf("want infeasible with ray, got %+v", sol)
	}
	certifyFarkas(t, p, sol.FarkasRay)
}

// BenchmarkSolveAllocs measures steady-state allocations per solve: the
// pooled solver should reuse its scratch (basis inverse rows, pricing
// vectors, CSC buffers) so per-solve allocations stay small and constant in
// the problem size after warmup.
func BenchmarkSolveAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := randomLP(rng, 80, 40)
	if sol, err := Solve(p); err != nil || sol.Status != StatusOptimal {
		b.Fatalf("%v %v", sol, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
