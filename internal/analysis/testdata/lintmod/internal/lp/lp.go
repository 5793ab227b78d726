// Package lp is a miniature stub of the real solver interface: just enough
// surface (Solve, SolveWithOptions, SolveCtx, SolveFrom, SolveFromCtx,
// Solution.Status) for the analyzer corpus to exercise checkedstatus,
// nanprop and the path-scoping rules.
package lp

import "context"

// Status reports the outcome of a solve.
type Status int8

const (
	StatusOptimal Status = iota
	StatusInfeasible
)

// Problem is a stub linear program.
type Problem struct {
	C []float64
}

// Options is a stub options struct.
type Options struct {
	Tol         float64
	NoDual      bool
	FullPricing bool
}

// Solution is a stub solve result.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
}

// Optimal reports whether the solve reached optimality.
func (s *Solution) Optimal() bool { return s.Status == StatusOptimal }

// Basis is a stub basis snapshot.
type Basis struct {
	Columns []int
}

// Solve pretends to minimise the problem.
func Solve(p *Problem) (*Solution, error) { return &Solution{}, nil }

// SolveWithOptions pretends to minimise the problem with options.
func SolveWithOptions(p *Problem, opts Options) (*Solution, error) { return &Solution{}, nil }

// SolveFrom pretends to minimise the problem from a basis snapshot.
func SolveFrom(p *Problem, b *Basis, opts Options) (*Solution, error) { return &Solution{}, nil }

// SolveCtx pretends to minimise the problem under a context.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	return &Solution{}, nil
}

// SolveFromCtx pretends to minimise from a basis snapshot under a context.
func SolveFromCtx(ctx context.Context, p *Problem, b *Basis, opts Options) (*Solution, error) {
	return &Solution{}, nil
}
