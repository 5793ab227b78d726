package num

import "testing"

func TestHelpers(t *testing.T) {
	cases := []struct {
		name string
		got  bool
		want bool
	}{
		{"Zero at zero", Zero(0, 1e-9), true},
		{"Zero within tol", Zero(-5e-10, 1e-9), true},
		{"Zero beyond tol", Zero(2e-9, 1e-9), false},
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
