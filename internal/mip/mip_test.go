package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/lp"
)

func intSlice(n int, val bool) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = val
	}
	return s
}

// denseRow converts one dense constraint row for lp.Problem.SA.
func denseRow(row []float64) lp.SparseRow { return lp.DenseRows([][]float64{row})[0] }

func TestKnapsack(t *testing.T) {
	// max 10x1+13x2+7x3+11x4 s.t. 3x1+4x2+2x3+3x4 <= 7, x binary.
	// Optimum: x1=0? enumerate: {x2,x4}: w=7 v=24; {x1,x2}: w=7 v=23;
	// {x1,x3,x4}: w=8 infeasible; {x2,x3}: w=6 v=20 +nothing else fits (w=1).
	// {x1,x4}: w=6, v=21, +x3 -> w=8 no. So best 24.
	p := &Problem{
		LP: &lp.Problem{
			C:     []float64{-10, -13, -7, -11},
			SA:    lp.DenseRows([][]float64{{3, 4, 2, 3}}),
			Rel:   []lp.Rel{lp.LE},
			B:     []float64{7},
			Upper: []float64{1, 1, 1, 1},
		},
		Integer: intSlice(4, true),
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Obj-(-24)) > 1e-6 {
		t.Fatalf("obj = %v, want -24 (x=%v)", sol.Obj, sol.X)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x = 3, x integer, 0<=x<=5: LP feasible (x=1.5) but no integer point.
	p := &Problem{
		LP: &lp.Problem{
			C:     []float64{1},
			SA:    lp.DenseRows([][]float64{{2}}),
			Rel:   []lp.Rel{lp.EQ},
			B:     []float64{3},
			Upper: []float64{5},
		},
		Integer: []bool{true},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 2y, x integer in [0,10], y continuous in [0,10],
	// s.t. x + y <= 7.5, x >= 2.2 → x in {3..7}. Optimum x=3, y=4.5: -12.
	p := &Problem{
		LP: &lp.Problem{
			C:     []float64{-1, -2},
			SA:    lp.DenseRows([][]float64{{1, 1}, {1, 0}}),
			Rel:   []lp.Rel{lp.LE, lp.GE},
			B:     []float64{7.5, 2.2},
			Upper: []float64{10, 10},
		},
		Integer: []bool{true, false},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-(-12)) > 1e-6 {
		t.Fatalf("got %v obj=%v x=%v, want obj=-12", sol.Status, sol.Obj, sol.X)
	}
	if math.Abs(sol.X[0]-3) > 1e-6 {
		t.Fatalf("x0 = %v, want 3", sol.X[0])
	}
}

func TestPureLPPassThrough(t *testing.T) {
	p := &Problem{
		LP: &lp.Problem{
			C:   []float64{1, 1},
			SA:  lp.DenseRows([][]float64{{1, 1}}),
			Rel: []lp.Rel{lp.GE},
			B:   []float64{3.3},
		},
		Integer: []bool{false, false},
	}
	sol, err := Solve(p)
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("%v %v", sol, err)
	}
	if math.Abs(sol.Obj-3.3) > 1e-6 {
		t.Fatalf("obj %v, want 3.3", sol.Obj)
	}
}

func TestUnboundedMILP(t *testing.T) {
	p := &Problem{
		LP: &lp.Problem{
			C:   []float64{-1},
			SA:  lp.DenseRows([][]float64{{0}}),
			Rel: []lp.Rel{lp.LE},
			B:   []float64{1},
		},
		Integer: []bool{true},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// An unbounded root relaxation of a pure-integer objective means the
	// MILP itself is unbounded; it must be reported as such, not as
	// infeasible.
	if sol.Status != StatusUnbounded {
		t.Fatalf("status %v, want unbounded: %+v", sol.Status, sol)
	}
	if !math.IsInf(sol.Bound, -1) {
		t.Fatalf("unbounded bound %v, want -Inf", sol.Bound)
	}
}

// bruteForceBinary enumerates all assignments of binary variables and, since
// all test instances have only binary integers, evaluates objective over
// feasible completions by solving the continuous rest exactly (here: no
// continuous vars).
func bruteForceBinary(p *Problem) (float64, bool) {
	n := p.LP.NumVars()
	best := math.Inf(1)
	found := false
	x := make([]float64, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			for i := range p.LP.SA {
				v := p.LP.RowDot(i, x)
				switch p.LP.Rel[i] {
				case lp.LE:
					if v > p.LP.B[i]+1e-9 {
						return
					}
				case lp.GE:
					if v < p.LP.B[i]-1e-9 {
						return
					}
				case lp.EQ:
					if math.Abs(v-p.LP.B[i]) > 1e-9 {
						return
					}
				}
			}
			obj := 0.0
			for k, c := range p.LP.C {
				obj += c * x[k]
			}
			if obj < best {
				best = obj
				found = true
			}
			return
		}
		x[j] = 0
		rec(j + 1)
		x[j] = 1
		rec(j + 1)
	}
	rec(0)
	return best, found
}

func TestRandomBinaryVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8) // up to 10 binaries
		m := 1 + rng.Intn(4)
		p := &Problem{
			LP: &lp.Problem{
				C:     make([]float64, n),
				SA:    make([]lp.SparseRow, m),
				Rel:   make([]lp.Rel, m),
				B:     make([]float64, m),
				Upper: make([]float64, n),
			},
			Integer: intSlice(n, true),
		}
		for j := 0; j < n; j++ {
			p.LP.C[j] = math.Round(rng.NormFloat64()*10) / 2
			p.LP.Upper[j] = 1
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			s := 0.0
			for j := range row {
				row[j] = float64(rng.Intn(7) - 2)
				s += math.Abs(row[j])
			}
			p.LP.SA[i] = denseRow(row)
			p.LP.Rel[i] = lp.LE
			p.LP.B[i] = s * (0.2 + 0.6*rng.Float64())
		}
		want, feas := bruteForceBinary(p)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feas {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v", trial, sol.Status)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal (brute=%v)", trial, sol.Status, want)
		}
		if math.Abs(sol.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: obj %v, want %v (x=%v)", trial, sol.Obj, want, sol.X)
		}
	}
}

func TestNodeLimit(t *testing.T) {
	// Force an early stop and check the status reflects it.
	rng := rand.New(rand.NewSource(5))
	n := 18
	p := &Problem{
		LP: &lp.Problem{
			C:     make([]float64, n),
			SA:    make([]lp.SparseRow, 1),
			Rel:   []lp.Rel{lp.LE},
			B:     []float64{0},
			Upper: make([]float64, n),
		},
		Integer: intSlice(n, true),
	}
	row := make([]float64, n)
	s := 0.0
	for j := 0; j < n; j++ {
		p.LP.C[j] = -(1 + rng.Float64())
		p.LP.Upper[j] = 1
		row[j] = 1 + rng.Float64()
		s += row[j]
	}
	p.LP.SA[0] = denseRow(row)
	p.LP.B[0] = s / 2
	sol, err := SolveWithOptions(p, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == StatusInfeasible {
		t.Fatalf("limit run reported infeasible")
	}
	if sol.Nodes > 4 {
		t.Fatalf("node limit not respected: %d", sol.Nodes)
	}
}

func TestValidate(t *testing.T) {
	p := &Problem{LP: &lp.Problem{C: []float64{1}}, Integer: []bool{true, false}}
	if _, err := Solve(p); err == nil {
		t.Fatal("want dimension error")
	}
	if _, err := Solve(&Problem{}); err == nil {
		t.Fatal("want nil LP error")
	}
}

func BenchmarkKnapsack20(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	p := &Problem{
		LP: &lp.Problem{
			C:     make([]float64, n),
			SA:    make([]lp.SparseRow, 1),
			Rel:   []lp.Rel{lp.LE},
			B:     []float64{0},
			Upper: make([]float64, n),
		},
		Integer: intSlice(n, true),
	}
	row := make([]float64, n)
	s := 0.0
	for j := 0; j < n; j++ {
		p.LP.C[j] = -(1 + 10*rng.Float64())
		p.LP.Upper[j] = 1
		row[j] = 1 + 10*rng.Float64()
		s += row[j]
	}
	p.LP.SA[0] = denseRow(row)
	p.LP.B[0] = s / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTimeLimit(t *testing.T) {
	// A zero-headroom deadline must stop the search without claiming
	// optimality on a hard instance.
	rng := rand.New(rand.NewSource(23))
	n := 26
	p := &Problem{
		LP: &lp.Problem{
			C:     make([]float64, n),
			SA:    make([]lp.SparseRow, 2),
			Rel:   []lp.Rel{lp.LE, lp.GE},
			B:     make([]float64, 2),
			Upper: make([]float64, n),
		},
		Integer: intSlice(n, true),
	}
	rows := [][]float64{make([]float64, n), make([]float64, n)}
	s := 0.0
	for j := 0; j < n; j++ {
		p.LP.C[j] = -(1 + rng.Float64())
		p.LP.Upper[j] = 1
		rows[0][j] = 1 + rng.Float64()
		rows[1][j] = rng.Float64()
		s += rows[0][j]
	}
	p.LP.SA = lp.DenseRows(rows)
	p.LP.B[0] = s / 2
	p.LP.B[1] = 0.1
	ctx, cancel := context.WithTimeout(context.Background(), 1) // 1ns
	defer cancel()
	sol, err := SolveCtx(ctx, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == StatusOptimal && sol.Nodes > 3 {
		t.Fatalf("claimed optimality after %d nodes under a 1ns limit", sol.Nodes)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		StatusOptimal:    "optimal",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusFeasible:   "feasible",
		StatusLimit:      "limit",
		StatusTimeLimit:  "time-limit",
		StatusCanceled:   "canceled",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if Status(99).String() == "" {
		t.Error("unknown status should still print")
	}
}
