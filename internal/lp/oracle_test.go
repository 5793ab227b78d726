package lp

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// oracle_test.go checks lp against an exact reference: a dense two-phase
// simplex over math/big.Rat with Bland's rule. Exact arithmetic plus Bland's
// rule cannot cycle or round, so on the small models below the oracle's
// status and optimum are ground truth. The generator builds three families
// whose status is known by construction, and the oracle must reproduce that
// status before lp is compared against it.

// ratResult is the exact answer of ratSolve.
type ratResult struct {
	status Status
	obj    *big.Rat // optimal objective; nil unless status is StatusOptimal
}

// ratSolve solves p exactly. It rewrites p in standard form
// (min c'y, A'y = b' ≥ 0, y ≥ 0) — shifting each variable onto its finite
// bound, splitting free variables, and turning every finite upper bound of
// a boxed variable into an extra row — then runs phase 1 over one
// artificial per row and phase 2 over the structural and slack columns,
// both with Bland's rule.
func ratSolve(p *Problem) ratResult {
	n, m := p.NumVars(), p.NumRows()
	// x_j = shift_j + Σ sign·y over the y columns of variable j.
	type term struct {
		col  int
		sign int64
	}
	shift := make([]*big.Rat, n)
	terms := make([][]term, n)
	ny := 0
	var boxed []int // variables whose span becomes an extra row
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		switch {
		case !math.IsInf(lo, -1):
			shift[j] = new(big.Rat).SetFloat64(lo)
			terms[j] = []term{{ny, 1}}
			if !math.IsInf(hi, 1) {
				boxed = append(boxed, j)
			}
			ny++
		case !math.IsInf(hi, 1):
			shift[j] = new(big.Rat).SetFloat64(hi)
			terms[j] = []term{{ny, -1}}
			ny++
		default:
			shift[j] = new(big.Rat)
			terms[j] = []term{{ny, 1}, {ny + 1, -1}}
			ny += 2
		}
	}
	rows := m + len(boxed)
	nSlack := 0
	for i := 0; i < m; i++ {
		if p.Rel[i] != EQ {
			nSlack++
		}
	}
	nSlack += len(boxed)
	nCols := ny + nSlack // artificials follow at nCols+i
	width := nCols + rows + 1
	rhs := width - 1
	t := make([][]big.Rat, rows)
	for i := range t {
		t[i] = make([]big.Rat, width)
	}
	var tmp big.Rat
	slack := ny
	for i := 0; i < m; i++ {
		row := t[i]
		row[rhs].SetFloat64(p.B[i])
		sa := &p.SA[i]
		for k, j := range sa.Ix {
			a := new(big.Rat).SetFloat64(sa.V[k])
			for _, tm := range terms[j] {
				tmp.SetInt64(tm.sign)
				tmp.Mul(&tmp, a)
				row[tm.col].Add(&row[tm.col], &tmp)
			}
			tmp.Mul(a, shift[j])
			row[rhs].Sub(&row[rhs], &tmp)
		}
		switch p.Rel[i] {
		case LE:
			row[slack].SetInt64(1)
			slack++
		case GE:
			row[slack].SetInt64(-1)
			slack++
		}
	}
	for k, j := range boxed {
		lo, hi := p.boundsAt(j)
		row := t[m+k]
		row[terms[j][0].col].SetInt64(1)
		row[slack].SetInt64(1)
		slack++
		row[rhs].SetFloat64(hi)
		tmp.SetFloat64(lo)
		row[rhs].Sub(&row[rhs], &tmp)
	}
	basis := make([]int, rows)
	for i := 0; i < rows; i++ {
		if t[i][rhs].Sign() < 0 {
			for k := range t[i] {
				t[i][k].Neg(&t[i][k])
			}
		}
		t[i][nCols+i].SetInt64(1)
		basis[i] = nCols + i
	}
	// Phase 1: minimise the artificial sum.
	cost := make([]big.Rat, nCols+rows)
	for i := 0; i < rows; i++ {
		cost[nCols+i].SetInt64(1)
	}
	ratPhase(t, basis, cost, nCols+rows)
	infeas := new(big.Rat)
	for i, bj := range basis {
		if bj >= nCols {
			infeas.Add(infeas, &t[i][rhs])
		}
	}
	if infeas.Sign() > 0 {
		return ratResult{status: StatusInfeasible}
	}
	// Drive the zero artificials out; a row with no structural or slack
	// entry left is redundant and keeps its artificial basic at zero, where
	// no later pivot can move it.
	for i, bj := range basis {
		if bj < nCols {
			continue
		}
		for j := 0; j < nCols; j++ {
			if t[i][j].Sign() != 0 {
				ratPivot(t, basis, i, j)
				break
			}
		}
	}
	// Phase 2 over the structural and slack columns only.
	for k := range cost {
		cost[k].SetInt64(0)
	}
	for j := 0; j < n; j++ {
		c := new(big.Rat).SetFloat64(p.C[j])
		for _, tm := range terms[j] {
			tmp.SetInt64(tm.sign)
			cost[tm.col].Mul(&tmp, c)
		}
	}
	if !ratPhase(t, basis, cost, nCols) {
		return ratResult{status: StatusUnbounded}
	}
	y := make([]big.Rat, nCols+rows)
	for i, bj := range basis {
		y[bj].Set(&t[i][rhs])
	}
	obj := new(big.Rat)
	for j := 0; j < n; j++ {
		x := new(big.Rat).Set(shift[j])
		for _, tm := range terms[j] {
			tmp.SetInt64(tm.sign)
			tmp.Mul(&tmp, &y[tm.col])
			x.Add(x, &tmp)
		}
		x.Mul(x, new(big.Rat).SetFloat64(p.C[j]))
		obj.Add(obj, x)
	}
	return ratResult{status: StatusOptimal, obj: obj}
}

// ratPhase minimises cost over the tableau with Bland's rule: the entering
// column is the lowest-indexed column below enterLimit with a negative
// reduced cost, and the leaving row the minimum ratio with ties broken by
// the lowest basic column index. It reports false when the entering column
// has no positive entry (the phase objective is unbounded below).
func ratPhase(t [][]big.Rat, basis []int, cost []big.Rat, enterLimit int) bool {
	rhs := len(t[0]) - 1
	var d, prod, ratio, best big.Rat
	inBasis := make([]bool, len(cost))
	for {
		for k := range inBasis {
			inBasis[k] = false
		}
		for _, bj := range basis {
			inBasis[bj] = true
		}
		enter := -1
		for j := 0; j < enterLimit && enter < 0; j++ {
			if inBasis[j] {
				continue
			}
			d.Set(&cost[j])
			for i, bj := range basis {
				if cost[bj].Sign() == 0 || t[i][j].Sign() == 0 {
					continue
				}
				prod.Mul(&cost[bj], &t[i][j])
				d.Sub(&d, &prod)
			}
			if d.Sign() < 0 {
				enter = j
			}
		}
		if enter < 0 {
			return true
		}
		leave := -1
		for i := range t {
			if t[i][enter].Sign() <= 0 {
				continue
			}
			ratio.Quo(&t[i][rhs], &t[i][enter])
			if leave < 0 {
				leave = i
				best.Set(&ratio)
				continue
			}
			if c := ratio.Cmp(&best); c < 0 || (c == 0 && basis[i] < basis[leave]) {
				leave = i
				best.Set(&ratio)
			}
		}
		if leave < 0 {
			return false
		}
		ratPivot(t, basis, leave, enter)
	}
}

// ratPivot makes column j basic in row r.
func ratPivot(t [][]big.Rat, basis []int, r, j int) {
	var inv, f, prod big.Rat
	inv.Inv(&t[r][j])
	for k := range t[r] {
		if t[r][k].Sign() != 0 {
			t[r][k].Mul(&t[r][k], &inv)
		}
	}
	for i := range t {
		if i == r || t[i][j].Sign() == 0 {
			continue
		}
		f.Set(&t[i][j])
		for k := range t[i] {
			if t[r][k].Sign() == 0 {
				continue
			}
			prod.Mul(&f, &t[r][k])
			t[i][k].Sub(&t[i][k], &prod)
		}
	}
	basis[r] = j
}

// oracleFamily names the status a generated model has by construction.
type oracleFamily int

const (
	oracleFeasible oracleFamily = iota
	oracleInfeasible
	oracleUnbounded
)

func (f oracleFamily) want() Status {
	switch f {
	case oracleInfeasible:
		return StatusInfeasible
	case oracleUnbounded:
		return StatusUnbounded
	}
	return StatusOptimal
}

// genOracleLP builds a model of at most 8 variables and 8 rows with small
// integer data around an integer point x0:
//
//   - feasible: every variable boxed at least 1 away from x0 and every
//     inequality row at least 1 away from its activity at x0, so x0 is
//     interior to every inequality and the optimum exists;
//   - infeasible: the feasible construction plus a pair of rows on one
//     coefficient vector, a·x ≤ β (or = β) and a·x ≥ β + g with g ≥ 1, some
//     bounds opened;
//   - unbounded: x0 plus a ray d of ±1 steps along variables whose bound is
//     open in that direction; each row's relation is chosen so that d keeps
//     it satisfied, and the cost is shifted so that c·d = −1.
func genOracleLP(rng *rand.Rand, fam oracleFamily) *Problem {
	n := 1 + rng.Intn(8)
	m := 1 + rng.Intn(8)
	if fam == oracleInfeasible {
		m = rng.Intn(7) // room for the conflicting pair
	}
	p := &Problem{C: make([]float64, n), Lower: make([]float64, n), Upper: make([]float64, n)}
	x0 := make([]float64, n)
	d := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = float64(rng.Intn(7) - 3)
		p.Lower[j] = x0[j] - float64(1+rng.Intn(3))
		p.Upper[j] = x0[j] + float64(1+rng.Intn(3))
		p.C[j] = float64(rng.Intn(11) - 5)
	}
	switch fam {
	case oracleInfeasible:
		for j := 0; j < n; j++ {
			switch rng.Intn(4) {
			case 0:
				p.Lower[j] = math.Inf(-1)
			case 1:
				p.Upper[j] = math.Inf(1)
			}
		}
	case oracleUnbounded:
		for j := 0; j < n; j++ {
			d[j] = float64(rng.Intn(3) - 1)
		}
		d[rng.Intn(n)] = float64(1 - 2*rng.Intn(2))
		for j := 0; j < n; j++ {
			switch {
			case d[j] > 0:
				p.Upper[j] = math.Inf(1)
			case d[j] < 0:
				p.Lower[j] = math.Inf(-1)
			}
		}
	}
	randRow := func() []float64 {
		row := make([]float64, n)
		for j := range row {
			if rng.Intn(5) < 3 {
				row[j] = float64(rng.Intn(9) - 4)
			}
		}
		return row
	}
	dot := func(a, x []float64) float64 {
		v := 0.0
		for j := range a {
			v += a[j] * x[j]
		}
		return v
	}
	for i := 0; i < m; i++ {
		row := randRow()
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		if fam == oracleUnbounded {
			switch s := dot(row, d); {
			case s > 0:
				rel = GE
			case s < 0:
				rel = LE
			}
		}
		b := dot(row, x0)
		switch rel {
		case LE:
			b += float64(1 + rng.Intn(3))
		case GE:
			b -= float64(1 + rng.Intn(3))
		}
		p.AddRow(row, rel, b)
	}
	switch fam {
	case oracleInfeasible:
		row := randRow()
		row[rng.Intn(n)] = float64(1 + rng.Intn(4))
		beta := dot(row, x0) + float64(rng.Intn(5)-2)
		gap := float64(1 + rng.Intn(3))
		first := []Rel{LE, EQ}[rng.Intn(2)]
		scale := float64(1 + rng.Intn(3))
		scaled := make([]float64, n)
		for j := range row {
			scaled[j] = scale * row[j]
		}
		// Insert the pair at random positions among the other rows.
		pair := []struct {
			row []float64
			rel Rel
			b   float64
		}{{row, first, beta}, {scaled, GE, scale * (beta + gap)}}
		for _, r := range pair {
			at := rng.Intn(len(p.SA) + 1)
			p.SA = append(p.SA[:at], append([]SparseRow{denseRow(r.row)}, p.SA[at:]...)...)
			p.Rel = append(p.Rel[:at], append([]Rel{r.rel}, p.Rel[at:]...)...)
			p.B = append(p.B[:at], append([]float64{r.b}, p.B[at:]...)...)
		}
	case oracleUnbounded:
		if cd := dot(p.C, d); cd > -1 {
			for j := range d {
				if d[j] != 0 {
					p.C[j] -= d[j] * (cd + 1)
					break
				}
			}
		}
	}
	return p
}

// randomNonsingularBasis returns a basis snapshot over m columns drawn at
// random from the structural and slack columns, rejecting draws whose
// basis matrix is singular in exact arithmetic (the all-slack basis is the
// fallback), with every nonbasic column resting on a random finite bound.
func randomNonsingularBasis(rng *rand.Rand, p *Problem) *Basis {
	n, m := p.NumVars(), p.NumRows()
	cols := make([]int, m)
	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			for i := range cols {
				cols[i] = n + i
			}
			break
		}
		perm := rng.Perm(n + m)
		copy(cols, perm[:m])
		if ratNonsingular(p, cols) {
			break
		}
	}
	b := &Basis{Columns: append([]int(nil), cols...), Status: make([]VarStatus, n+m)}
	basic := make([]bool, n+m)
	for _, j := range cols {
		basic[j] = true
	}
	for j := 0; j < n+m; j++ {
		if basic[j] {
			b.Status[j] = VarBasic
			continue
		}
		var lo, hi float64
		if j < n {
			lo, hi = p.boundsAt(j)
		} else {
			switch p.Rel[j-n] {
			case LE:
				lo, hi = 0, math.Inf(1)
			case GE:
				lo, hi = math.Inf(-1), 0
			}
		}
		switch {
		case !math.IsInf(lo, -1) && (math.IsInf(hi, 1) || rng.Intn(2) == 0):
			b.Status[j] = VarAtLower
		case !math.IsInf(hi, 1):
			b.Status[j] = VarAtUpper
		default:
			b.Status[j] = VarFree
		}
	}
	return b
}

// ratNonsingular reports whether the basis matrix over cols (structural
// columns below NumVars, slacks above) is nonsingular, by exact
// elimination.
func ratNonsingular(p *Problem, cols []int) bool {
	n, m := p.NumVars(), p.NumRows()
	a := make([][]big.Rat, m)
	for i := range a {
		a[i] = make([]big.Rat, m)
		for k, j := range cols {
			if j >= n {
				if j-n == i {
					a[i][k].SetInt64(1)
				}
				continue
			}
			sa := &p.SA[i]
			for t, jj := range sa.Ix {
				if jj == j {
					a[i][k].SetFloat64(sa.V[t])
				}
			}
		}
	}
	var f, prod big.Rat
	for c := 0; c < m; c++ {
		piv := -1
		for r := c; r < m; r++ {
			if a[r][c].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return false
		}
		a[c], a[piv] = a[piv], a[c]
		for r := c + 1; r < m; r++ {
			if a[r][c].Sign() == 0 {
				continue
			}
			f.Quo(&a[r][c], &a[c][c])
			for k := c; k < m; k++ {
				prod.Mul(&f, &a[c][k])
				a[r][k].Sub(&a[r][k], &prod)
			}
		}
	}
	return true
}

// tightenOneBound returns a copy of p with one variable's bound moved
// strictly inside its interval, preferring a basic variable of the parent
// optimum so that the parent basis turns primal infeasible — the branching
// case the dual warm path exists for.
func tightenOneBound(rng *rand.Rand, p *Problem, parent *Solution) *Problem {
	child := p.Clone()
	n := p.NumVars()
	var cand []int
	for _, j := range parent.Basis.Columns {
		if j >= 0 && j < n {
			cand = append(cand, j)
		}
	}
	j := rng.Intn(n)
	if len(cand) > 0 && rng.Intn(4) > 0 {
		j = cand[rng.Intn(len(cand))]
	}
	v := parent.X[j]
	lo, hi := p.boundsAt(j)
	if rng.Intn(2) == 0 {
		nh := math.Ceil(v) - 1 // strictly below v
		if nh < lo {
			nh = lo
		}
		child.Upper[j] = nh
	} else {
		nl := math.Floor(v) + 1 // strictly above v
		if nl > hi {
			nl = hi
		}
		child.Lower[j] = nl
	}
	return child
}

// oracleAgrees checks one lp answer against the exact one: the same
// status and, at an optimum, the same objective and a point inside every
// bound and row.
func oracleAgrees(p *Problem, want ratResult, sol *Solution, err error) error {
	if err != nil {
		return err
	}
	if sol.Status != want.status {
		return fmt.Errorf("status %v, oracle %v", sol.Status, want.status)
	}
	if want.status != StatusOptimal {
		return nil
	}
	exact, _ := want.obj.Float64()
	if math.Abs(sol.Obj-exact) > 1e-7*(1+math.Abs(exact)) {
		return fmt.Errorf("objective %.12g, oracle %.12g", sol.Obj, exact)
	}
	if !feasible(p, sol.X, 1e-7) {
		return fmt.Errorf("point %v violates a bound or row", sol.X)
	}
	return nil
}

// checkOracleModel generates one model of the family from seed and checks
// lp against the oracle on four paths: a cold solve under candidate-list
// and under full pricing, SolveFrom a random nonsingular basis, and — when
// the model is optimal — a warm re-solve from the optimal basis after
// tightening one bound. It returns how the two warm solves used their
// basis (WarmNone for a path that did not run).
func checkOracleModel(t *testing.T, seed int64, fam oracleFamily) (random, tightened WarmStart) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := genOracleLP(rng, fam)
	want := ratSolve(p)
	if want.status != fam.want() {
		t.Fatalf("seed %d: oracle says %v for a model built %v", seed, want.status, fam.want())
	}
	cand, err := SolveWithOptions(p, Options{})
	if e := oracleAgrees(p, want, cand, err); e != nil {
		t.Fatalf("seed %d cold candidate pricing: %v\n%s", seed, e, formatOracleLP(p))
	}
	full, err := SolveWithOptions(p, Options{FullPricing: true})
	if e := oracleAgrees(p, want, full, err); e != nil {
		t.Fatalf("seed %d cold full pricing: %v\n%s", seed, e, formatOracleLP(p))
	}
	warm, err := SolveFrom(p, randomNonsingularBasis(rng, p), Options{})
	if e := oracleAgrees(p, want, warm, err); e != nil {
		t.Fatalf("seed %d SolveFrom random basis: %v\n%s", seed, e, formatOracleLP(p))
	}
	if cand.Status != StatusOptimal {
		return warm.WarmStart, WarmNone
	}
	child := tightenOneBound(rng, p, cand)
	dual, err := SolveFrom(child, cand.Basis, Options{})
	if e := oracleAgrees(child, ratSolve(child), dual, err); e != nil {
		t.Fatalf("seed %d warm re-solve after tightening a bound: %v\n%s", seed, e, formatOracleLP(child))
	}
	return warm.WarmStart, dual.WarmStart
}

// formatOracleLP renders a failing model so it can be pinned as a named
// regression case.
func formatOracleLP(p *Problem) string {
	s := fmt.Sprintf("C=%v\nLower=%v\nUpper=%v\n", p.C, p.Lower, p.Upper)
	for i := range p.SA {
		s += fmt.Sprintf("row %d: %v %v %v %v\n", i, p.SA[i].Ix, p.SA[i].V, p.Rel[i], p.B[i])
	}
	return s
}

// TestLPMatchesExactOracle is the seeded property test: every family, many
// seeds, all four paths.
// The warm paths must really run: the random bases must not all fall back
// to the cold path, and the tightened re-solves must reach the dual path.
func TestLPMatchesExactOracle(t *testing.T) {
	perFamily := 1000
	if raceEnabled || testing.Short() {
		perFamily = 150
	}
	random := map[WarmStart]int{}
	tightened := map[WarmStart]int{}
	for _, fam := range []oracleFamily{oracleFeasible, oracleInfeasible, oracleUnbounded} {
		for k := 0; k < perFamily; k++ {
			r, d := checkOracleModel(t, int64(perFamily*int(fam)+k), fam)
			random[r]++
			tightened[d]++
		}
	}
	if random[WarmFallback] == 3*perFamily {
		t.Fatalf("every random basis fell back to the cold path: %v", random)
	}
	if tightened[WarmDual] == 0 {
		t.Fatalf("no tightened re-solve took the dual path: %v", tightened)
	}
	t.Logf("random-basis warm starts %v; tightened re-solves %v", random, tightened)
}

// TestRatSolveKnownAnswers pins the oracle itself on hand-solved models.
func TestRatSolveKnownAnswers(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		p    *Problem
		want Status
		obj  float64
	}{
		{"vertex", &Problem{C: []float64{-1, -1}, SA: DenseRows([][]float64{{1, 2}, {3, 1}}), Rel: []Rel{LE, LE}, B: []float64{4, 6}}, StatusOptimal, -2.8},
		{"boxed GE", &Problem{C: []float64{1, 2}, SA: DenseRows([][]float64{{1, 1}}), Rel: []Rel{GE}, B: []float64{3}, Lower: []float64{-1, 0}, Upper: []float64{2, 5}}, StatusOptimal, 4},
		{"free EQ", &Problem{C: []float64{-1, 1}, SA: DenseRows([][]float64{{1, 1}, {1, -1}}), Rel: []Rel{EQ, LE}, B: []float64{2, 4}, Lower: []float64{-inf, -inf}, Upper: []float64{inf, inf}}, StatusOptimal, -4},
		{"upper only", &Problem{C: []float64{1}, SA: DenseRows([][]float64{{1}}), Rel: []Rel{GE}, B: []float64{-3}, Lower: []float64{-inf}, Upper: []float64{1}}, StatusOptimal, -3},
		{"infeasible", &Problem{C: []float64{1}, SA: DenseRows([][]float64{{1}, {1}}), Rel: []Rel{LE, GE}, B: []float64{1, 2}}, StatusInfeasible, 0},
		{"unbounded", &Problem{C: []float64{-1, 0}, SA: DenseRows([][]float64{{1, -1}}), Rel: []Rel{LE}, B: []float64{1}}, StatusUnbounded, 0},
		{"redundant", &Problem{C: []float64{1, 1}, SA: DenseRows([][]float64{{1, 1}, {2, 2}}), Rel: []Rel{EQ, EQ}, B: []float64{1, 2}}, StatusOptimal, 1},
	}
	for _, tc := range cases {
		got := ratSolve(tc.p)
		if got.status != tc.want {
			t.Fatalf("%s: status %v, want %v", tc.name, got.status, tc.want)
		}
		if got.status == StatusOptimal {
			if v, _ := got.obj.Float64(); math.Abs(v-tc.obj) > 1e-12 {
				t.Fatalf("%s: objective %v, want %v", tc.name, v, tc.obj)
			}
		}
	}
}

// FuzzLPOracle runs the oracle comparison on fuzzer-chosen seeds of every
// family: go test -run '^$' -fuzz FuzzLPOracle -fuzztime 20s ./internal/lp
func FuzzLPOracle(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for fam := uint8(0); fam < 3; fam++ {
			f.Add(seed, fam)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, fam uint8) {
		_, _ = checkOracleModel(t, seed, oracleFamily(fam%3))
	})
}
