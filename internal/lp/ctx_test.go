package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a bounded random feasible LP: min c·x, A·x ≤ b, 0 ≤ x ≤ 1,
// with b large enough that x = 0 is feasible.
func randomLP(rng *rand.Rand, n, m int) *Problem {
	p := &Problem{
		C:     make([]float64, n),
		Lower: make([]float64, n),
		Upper: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.Float64()*2 - 1
		p.Upper[j] = 1
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			row[j] = rng.Float64()
		}
		p.AddRow(row, LE, 0.5+rng.Float64())
	}
	return p
}

func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := randomLP(rng, 8+trial, 5)
		want, err := SolveWithOptions(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveCtx(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Obj != want.Obj || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: SolveCtx(Background) = (%v, %v, %d iters), Solve = (%v, %v, %d iters)",
				trial, got.Status, got.Obj, got.Iterations, want.Status, want.Obj, want.Iterations)
		}
		for j := range want.X {
			if got.X[j] != want.X[j] {
				t.Fatalf("trial %d: X[%d] differs: %v vs %v", trial, j, got.X[j], want.X[j])
			}
		}
	}
}

func TestSolveCtxCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomLP(rng, 20, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveCtx(ctx, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Fatalf("status = %v, want %v", sol.Status, StatusCanceled)
	}
}

func TestSolveFromCtxCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomLP(rng, 20, 10)
	warm, err := SolveWithOptions(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal || warm.Basis == nil {
		t.Fatalf("warm solve: status %v, basis %v", warm.Status, warm.Basis)
	}
	// Perturb a bound so the repair loop actually runs, then cancel.
	q := &Problem{
		C: append([]float64(nil), p.C...), SA: p.SA, Rel: p.Rel,
		B:     append([]float64(nil), p.B...),
		Lower: append([]float64(nil), p.Lower...),
		Upper: append([]float64(nil), p.Upper...),
	}
	q.Upper[0] = 0.5
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveFromCtx(ctx, q, warm.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Fatalf("status = %v, want %v", sol.Status, StatusCanceled)
	}
}

func TestSolveFromCtxBackgroundMatchesSolveFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomLP(rng, 16, 8)
	warm, err := SolveWithOptions(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := &Problem{
		C: append([]float64(nil), p.C...), SA: p.SA, Rel: p.Rel,
		B:     append([]float64(nil), p.B...),
		Lower: append([]float64(nil), p.Lower...),
		Upper: append([]float64(nil), p.Upper...),
	}
	q.Upper[1] = 0.25
	want, err := SolveFrom(q, warm.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveFromCtx(context.Background(), q, warm.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Obj != want.Obj || got.WarmStart != want.WarmStart {
		t.Fatalf("SolveFromCtx(Background) = (%v, %v, %v), SolveFrom = (%v, %v, %v)",
			got.Status, got.Obj, got.WarmStart, want.Status, want.Obj, want.WarmStart)
	}
}

func TestStatusCanceledString(t *testing.T) {
	if s := StatusCanceled.String(); s != "canceled" {
		t.Fatalf("StatusCanceled.String() = %q", s)
	}
}

func TestSolveCtxCanceledPhase2ExportsFeasiblePoint(t *testing.T) {
	// Cancellation during phase 2 must behave like an iteration limit: the
	// current feasible iterate is exported, never treated as a bound proof.
	rng := rand.New(rand.NewSource(9))
	p := randomLP(rng, 30, 15)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveCtx(ctx, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Fatalf("status = %v", sol.Status)
	}
	// x = 0 is feasible here, so a canceled solve that exports a point must
	// export a finite objective.
	if sol.X != nil && math.IsNaN(sol.Obj) {
		t.Fatalf("canceled solve exported NaN objective")
	}
}
