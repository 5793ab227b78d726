package lp

import (
	"math"

	"rentplan/internal/num"
)

// peelScratch holds the buffers of the triangular-peel refactorisation,
// kept on the simplex so pooled solvers reuse them across refreshes.
type peelScratch struct {
	// Column structure of the basis matrix B: column i (a basis position)
	// holds the equality-form column of s.basis[i].
	colPtr []int32
	colRow []int32
	colVal []float64
	// Row structure derived from it: row k lists (basis position, value).
	rowPtr []int32
	rowEnt []int32
	rowVal []float64
	cursor []int32
	// Peel state.
	rowCnt, colCnt   []int32
	rowDone, colDone []bool
	stackR, stackC   []int32
	// Pivot sequence: order s → (constraint row, basis position, diagonal).
	pivRow, pivCol   []int32
	backRow, backCol []int32
	diag             []float64
	ord              []int32 // constraint row → pivot order
	res              []float64
	// Dense handling of the irreducible core left when the peel stalls:
	// the r×r block matrix, its explicit inverse, and solve scratch.
	core, coreInv []float64
	cx, cy        []float64
}

// invertBasisPeel rebuilds B⁻¹ by two-sided singleton peeling. Scenario-tree
// bases are near-triangular: repeatedly removing rows with a single active
// nonzero (collected front-to-back) and columns with a single active nonzero
// (collected back-to-front) yields a row/column permutation under which B is
// block lower triangular — the peel performs no arithmetic, so there is no
// fill-in and no growth. Whatever irreducible core ("bump") remains when
// both singleton supplies run dry — e.g. the α/χ forcing–valid 4-cycles at
// fractional SRRP vertices — sits as one dense diagonal block between the
// front and back pivots: front rows are zero in every core and back column
// (those columns were still active when the front row shrank to a
// singleton), and core rows are zero in every back column (a back column's
// single active entry was in an already-eliminated row). The core is
// inverted densely once, O(r³) for core size r, and each column of B⁻¹ then
// follows from one sparse block forward substitution, O(m·(nnz/m + r²))
// overall versus the dense elimination's O(m³). It reports false — leaving
// s.binv untouched — when the core is too large for the block scheme to pay
// (r > m/2), when a row or column empties unpivoted (structurally singular),
// or when any pivot is numerically negligible; the caller falls back to
// dense Gauss–Jordan, which owns the general case.
func (s *simplex) invertBasisPeel() bool {
	m := s.m
	f := &s.factor
	cs := &s.csc
	// ---- Build the column structure of B. ----
	maxNNZ := cs.nnz() + m // every unit column contributes one entry
	f.colPtr = growInt32(f.colPtr, m+1)
	f.colRow = growInt32(f.colRow, maxNNZ)
	f.colVal = growFloat(f.colVal, maxNNZ)
	pos := int32(0)
	for i := 0; i < m; i++ {
		f.colPtr[i] = pos
		j := s.basis[i]
		switch {
		case j < s.n:
			for t := cs.colPtr[j]; t < cs.colPtr[j+1]; t++ {
				f.colRow[pos] = cs.rowIdx[t]
				f.colVal[pos] = cs.val[t]
				pos++
			}
		case j < s.nTot:
			f.colRow[pos] = int32(j - s.n)
			f.colVal[pos] = 1
			pos++
		default:
			f.colRow[pos] = int32(j - s.nTot)
			f.colVal[pos] = s.artSgn[j-s.nTot]
			pos++
		}
	}
	f.colPtr[m] = pos
	nnzB := int(pos)
	// ---- Derive the row structure. ----
	f.rowCnt = growInt32(f.rowCnt, m)
	f.colCnt = growInt32(f.colCnt, m)
	for k := 0; k < m; k++ {
		f.rowCnt[k] = 0
	}
	for i := 0; i < m; i++ {
		f.colCnt[i] = f.colPtr[i+1] - f.colPtr[i]
		for t := f.colPtr[i]; t < f.colPtr[i+1]; t++ {
			f.rowCnt[f.colRow[t]]++
		}
	}
	f.rowPtr = growInt32(f.rowPtr, m+1)
	f.rowEnt = growInt32(f.rowEnt, nnzB)
	f.rowVal = growFloat(f.rowVal, nnzB)
	f.cursor = growInt32(f.cursor, m)
	acc := int32(0)
	for k := 0; k < m; k++ {
		f.rowPtr[k] = acc
		f.cursor[k] = acc
		acc += f.rowCnt[k]
	}
	f.rowPtr[m] = acc
	for i := 0; i < m; i++ {
		for t := f.colPtr[i]; t < f.colPtr[i+1]; t++ {
			k := f.colRow[t]
			f.rowEnt[f.cursor[k]] = int32(i)
			f.rowVal[f.cursor[k]] = f.colVal[t]
			f.cursor[k]++
		}
	}
	// ---- Two-sided singleton peel. ----
	f.rowDone = growBool(f.rowDone, m)
	f.colDone = growBool(f.colDone, m)
	for k := 0; k < m; k++ {
		f.rowDone[k], f.colDone[k] = false, false
	}
	f.stackR = f.stackR[:0]
	f.stackC = f.stackC[:0]
	for k := 0; k < m; k++ {
		switch f.rowCnt[k] {
		case 0:
			return false // empty row: structurally singular
		case 1:
			f.stackR = append(f.stackR, int32(k))
		}
	}
	for i := 0; i < m; i++ {
		switch f.colCnt[i] {
		case 0:
			return false // empty column: structurally singular
		case 1:
			f.stackC = append(f.stackC, int32(i))
		}
	}
	f.pivRow = growInt32(f.pivRow, m)
	f.pivCol = growInt32(f.pivCol, m)
	f.diag = growFloat(f.diag, m)
	f.backRow = f.backRow[:0]
	f.backCol = f.backCol[:0]
	nFront := 0
	done := 0
	eliminate := func(k, i int32) bool {
		f.rowDone[k], f.colDone[i] = true, true
		done++
		for t := f.rowPtr[k]; t < f.rowPtr[k+1]; t++ {
			if i2 := f.rowEnt[t]; !f.colDone[i2] {
				f.colCnt[i2]--
				if f.colCnt[i2] == 1 {
					f.stackC = append(f.stackC, i2)
				} else if f.colCnt[i2] == 0 {
					return false // column emptied without being pivoted
				}
			}
		}
		for t := f.colPtr[i]; t < f.colPtr[i+1]; t++ {
			if k2 := f.colRow[t]; !f.rowDone[k2] {
				f.rowCnt[k2]--
				if f.rowCnt[k2] == 1 {
					f.stackR = append(f.stackR, k2)
				} else if f.rowCnt[k2] == 0 {
					return false // row emptied without being pivoted
				}
			}
		}
		return true
	}
	for done < m {
		if len(f.stackR) > 0 {
			k := f.stackR[len(f.stackR)-1]
			f.stackR = f.stackR[:len(f.stackR)-1]
			if f.rowDone[k] {
				continue
			}
			// The row's single active entry is the pivot.
			piv, pv := int32(-1), 0.0
			for t := f.rowPtr[k]; t < f.rowPtr[k+1]; t++ {
				if i := f.rowEnt[t]; !f.colDone[i] {
					piv, pv = i, f.rowVal[t]
					break
				}
			}
			if piv < 0 || math.Abs(pv) <= num.SingularTol {
				return false
			}
			f.pivRow[nFront], f.pivCol[nFront], f.diag[nFront] = k, piv, pv
			nFront++
			if !eliminate(k, piv) {
				return false
			}
			continue
		}
		if len(f.stackC) > 0 {
			i := f.stackC[len(f.stackC)-1]
			f.stackC = f.stackC[:len(f.stackC)-1]
			if f.colDone[i] {
				continue
			}
			piv, pv := int32(-1), 0.0
			for t := f.colPtr[i]; t < f.colPtr[i+1]; t++ {
				if k := f.colRow[t]; !f.rowDone[k] {
					piv, pv = k, f.colVal[t]
					break
				}
			}
			if piv < 0 || math.Abs(pv) <= num.SingularTol {
				return false
			}
			f.backRow = append(f.backRow, piv)
			f.backCol = append(f.backCol, i)
			if !eliminate(piv, i) {
				return false
			}
			continue
		}
		break // bump: the remainder becomes the dense core block
	}
	// Final pivot order: the row-singleton pivots front-to-back, then the
	// core rows/columns as one block, then the column-singleton pivots in
	// reverse discovery order (see the function comment for why this is
	// block lower triangular).
	coreN := m - done
	coreStart, coreEnd := nFront, nFront+coreN
	if coreN > m/2 {
		return false // core too large for the block scheme to pay off
	}
	if coreN > 0 {
		ci, cj := coreStart, coreStart
		for k := 0; k < m; k++ {
			if !f.rowDone[k] {
				f.pivRow[ci] = int32(k)
				ci++
			}
		}
		for i := 0; i < m; i++ {
			if !f.colDone[i] {
				f.pivCol[cj] = int32(i)
				cj++
			}
		}
		if ci != coreEnd || cj != coreEnd {
			return false // row/column deficit: structurally singular
		}
	}
	nBack := len(f.backRow)
	for t := 0; t < nBack; t++ {
		o := coreEnd + t
		f.pivRow[o] = f.backRow[nBack-1-t]
		f.pivCol[o] = f.backCol[nBack-1-t]
	}
	// Back-pivot diagonals were not recorded in order; fetch them now.
	for o := coreEnd; o < m; o++ {
		k, i := f.pivRow[o], f.pivCol[o]
		pv := 0.0
		for t := f.colPtr[i]; t < f.colPtr[i+1]; t++ {
			if f.colRow[t] == k {
				pv = f.colVal[t]
				break
			}
		}
		if math.Abs(pv) <= num.SingularTol {
			return false
		}
		f.diag[o] = pv
	}
	f.ord = growInt32(f.ord, m)
	for o := 0; o < m; o++ {
		f.ord[f.pivRow[o]] = int32(o)
	}
	if coreN > 0 && !f.invertCore(coreStart, coreN) {
		return false
	}
	// ---- One sparse block forward substitution per column of B⁻¹. ----
	for i := 0; i < m; i++ {
		row := s.binv[i]
		for k := 0; k < m; k++ {
			row[k] = 0
		}
	}
	f.res = growFloat(f.res, m)
	for o := 0; o < m; o++ {
		f.res[o] = 0
	}
	subStep := func(o, r int) {
		v := f.res[o]
		f.res[o] = 0
		if v == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero residual needs no substitution step
			return
		}
		//lint:ignore rentlint/nanprop every diag passed the |·| > num.SingularTol check above
		x := v / f.diag[o]
		ip := f.pivCol[o]
		s.binv[ip][r] = x
		for t := f.colPtr[ip]; t < f.colPtr[ip+1]; t++ {
			if o2 := int(f.ord[f.colRow[t]]); o2 > o {
				f.res[o2] -= f.colVal[t] * x
			}
		}
	}
	for r := 0; r < m; r++ {
		s0 := int(f.ord[r])
		f.res[s0] = 1
		for o := s0; o < coreStart; o++ {
			subStep(o, r)
		}
		if coreN > 0 && s0 < coreEnd {
			f.coreSolve(s, coreStart, coreN, r)
		}
		start := coreEnd
		if s0 > start {
			start = s0
		}
		for o := start; o < m; o++ {
			subStep(o, r)
		}
	}
	return true
}

// invertCore builds the core block K — entry (core position of constraint
// row, core column index) over the undone rows and columns — and computes
// its explicit inverse by Gauss–Jordan with partial pivoting. Returns false
// on a negligible pivot, before s.binv has been touched.
func (f *peelScratch) invertCore(coreStart, r int) bool {
	f.core = growFloat(f.core, r*r)
	f.coreInv = growFloat(f.coreInv, r*r)
	f.cx = growFloat(f.cx, r)
	f.cy = growFloat(f.cy, r)
	for t := range f.core[:r*r] {
		f.core[t] = 0
		f.coreInv[t] = 0
	}
	for ci := 0; ci < r; ci++ {
		f.coreInv[ci*r+ci] = 1
		ic := f.pivCol[coreStart+ci]
		for t := f.colPtr[ic]; t < f.colPtr[ic+1]; t++ {
			if o := int(f.ord[f.colRow[t]]) - coreStart; o >= 0 && o < r {
				f.core[o*r+ci] = f.colVal[t]
			}
		}
	}
	for c := 0; c < r; c++ {
		// Partial pivoting: swap up the largest remaining entry in column c.
		best, bestAbs := c, math.Abs(f.core[c*r+c])
		for k := c + 1; k < r; k++ {
			if a := math.Abs(f.core[k*r+c]); a > bestAbs {
				best, bestAbs = k, a
			}
		}
		if bestAbs <= num.SingularTol {
			return false
		}
		if best != c {
			for t := 0; t < r; t++ {
				f.core[best*r+t], f.core[c*r+t] = f.core[c*r+t], f.core[best*r+t]
				f.coreInv[best*r+t], f.coreInv[c*r+t] = f.coreInv[c*r+t], f.coreInv[best*r+t]
			}
		}
		//lint:ignore rentlint/nanprop the pivot passed the |·| > num.SingularTol check above
		inv := 1 / f.core[c*r+c]
		for t := 0; t < r; t++ {
			f.core[c*r+t] *= inv
			f.coreInv[c*r+t] *= inv
		}
		for k := 0; k < r; k++ {
			if k == c {
				continue
			}
			g := f.core[k*r+c]
			if g == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero multiplier leaves the row untouched
				continue
			}
			for t := 0; t < r; t++ {
				f.core[k*r+t] -= g * f.core[c*r+t]
				f.coreInv[k*r+t] -= g * f.coreInv[c*r+t]
			}
		}
	}
	return true
}

// coreSolve performs the dense block step of the forward substitution for
// B⁻¹ column rcol: consume the residuals accumulated at the core positions,
// solve K·y = res_core through the precomputed inverse, write the solution
// components into binv, and propagate them to the back positions. Core
// columns have no entries in front rows (they were active when every front
// row shrank to a singleton), so propagation only ever targets positions at
// or beyond coreEnd.
func (f *peelScratch) coreSolve(s *simplex, coreStart, r, rcol int) {
	any := false
	for ci := 0; ci < r; ci++ {
		f.cx[ci] = f.res[coreStart+ci]
		f.res[coreStart+ci] = 0
		if f.cx[ci] != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: zero residuals contribute nothing to the block solve
			any = true
		}
		f.cy[ci] = 0
	}
	if !any {
		return
	}
	coreEnd := coreStart + r
	for cj := 0; cj < r; cj++ {
		v := f.cx[cj]
		if v == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: zero residuals contribute nothing to the block solve
			continue
		}
		for ci := 0; ci < r; ci++ {
			f.cy[ci] += f.coreInv[ci*r+cj] * v
		}
	}
	for ci := 0; ci < r; ci++ {
		x := f.cy[ci]
		if x == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero solution component updates nothing
			continue
		}
		ip := f.pivCol[coreStart+ci]
		s.binv[ip][rcol] = x
		for t := f.colPtr[ip]; t < f.colPtr[ip+1]; t++ {
			if o2 := int(f.ord[f.colRow[t]]); o2 >= coreEnd {
				f.res[o2] -= f.colVal[t] * x
			}
		}
	}
}

// growBool is growFloat for []bool.
func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
