package lp

import (
	"math"

	"rentplan/internal/num"
)

// evictArtificials pivots zero-valued artificial variables out of the basis
// after a successful phase 1, replacing them with structural or slack
// columns. Rows whose artificial cannot be replaced are linearly dependent
// on the others; their artificial stays basic, permanently fixed at zero.
// Each exchange pushes an eta like any other pivot, and the basis is
// refactorised once at the end so phase 2 starts from fresh factors and
// recomputed basic values.
func (s *simplex) evictArtificials() {
	for r := 0; r < s.m; r++ {
		if s.basis[r] < s.nTot {
			continue
		}
		// Row r of B⁻¹·[A | I]: find a nonbasic, non-fixed column with a
		// usable pivot entry.
		s.btranRow(r)
		found := -1
		for j := 0; j < s.nTot; j++ {
			//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
			if s.stat[j] == statusBasic || s.lo[j] == s.hi[j] {
				continue
			}
			if math.Abs(s.colDot(s.rowr, j)) > num.EvictPivotTol {
				found = j
				break
			}
		}
		if found < 0 {
			// Redundant row: pin the artificial.
			aj := s.basis[r]
			s.lo[aj], s.hi[aj] = 0, 0
			continue
		}
		// Degenerate exchange: the artificial sits at zero, so swapping it
		// for column `found` does not move the primal point. The entering
		// column keeps its current (bound) value; only the basis changes.
		// The spike's entry w[r] is the pivot that just passed the
		// EvictPivotTol test.
		s.ftranSpike(found)
		out := s.basis[r]
		s.stat[out] = statusAtLower
		s.xval[out] = 0
		s.inRow[out] = -1
		s.lo[out], s.hi[out] = 0, 0
		s.basis[r] = found
		s.stat[found] = statusBasic
		s.inRow[found] = r
		s.pushEta(r)
	}
	s.refactor()
}
