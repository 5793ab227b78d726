package num

import "testing"

func TestHelpers(t *testing.T) {
	cases := []struct {
		name string
		got  bool
		want bool
	}{
		{"Eq within tol", Eq(1.0, 1.0+5e-10, 1e-9), true},
		{"Eq beyond tol", Eq(1.0, 1.0+2e-9, 1e-9), false},
		{"Eq boundary inclusive", Eq(0, 1e-9, 1e-9), true},
		{"Zero at zero", Zero(0, 1e-9), true},
		{"Zero within tol", Zero(-5e-10, 1e-9), true},
		{"Zero beyond tol", Zero(2e-9, 1e-9), false},
		{"Leq strict", Leq(1.0, 2.0, 1e-9), true},
		{"Leq within slack", Leq(2.0+5e-10, 2.0, 1e-9), true},
		{"Leq violated", Leq(2.1, 2.0, 1e-9), false},
		{"Geq strict", Geq(2.0, 1.0, 1e-9), true},
		{"Geq within slack", Geq(2.0-5e-10, 2.0, 1e-9), true},
		{"Geq violated", Geq(1.9, 2.0, 1e-9), false},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestToleranceOrdering pins the cross-constant relationships the doc
// comments promise: drift below the optimality gaps, pivot admission below
// the feasibility checks.
func TestToleranceOrdering(t *testing.T) {
	if !(DriftTol < RelGapTol) {
		t.Error("DriftTol must stay below RelGapTol (ties must not beat the gap)")
	}
	if !(DriftTol < LPTol) {
		t.Error("DriftTol must stay below LPTol")
	}
	if !(PivotTol < EvictPivotTol) {
		t.Error("PivotTol must stay below EvictPivotTol (eviction is the looser, degenerate case)")
	}
	if !(SingularTol <= PivotTol) {
		t.Error("SingularTol must not exceed PivotTol")
	}
	if !(SnapTol <= FeasTol) {
		t.Error("SnapTol must not exceed FeasTol (snapped points must stay feasible)")
	}
	if !(LPTol < DecompGapTol) {
		t.Error("LPTol must stay below DecompGapTol (subproblem LPs must certify the decomposition gap)")
	}
	if !(CutDedupTol < DecompGapTol) {
		t.Error("CutDedupTol must stay below DecompGapTol (dedup must not discard gap-moving cuts)")
	}
	if !(DriftTol < ProbMassTol) {
		t.Error("DriftTol must stay below ProbMassTol (mass drift allowance covers summation rounding)")
	}
	if !(ThetaFloorTol > LPTol) {
		t.Error("ThetaFloorTol must exceed LPTol (the theta floor absorbs LP rounding)")
	}
}
