package lp

import (
	"math"

	"rentplan/internal/num"
)

// basisFactors is a basis matrix B₀ in the factored form the triangular
// peel leaves it in. Under the peel's row and column orders B₀ is block
// lower triangular: front pivots, then one dense core block K, then back
// pivots, every off-diagonal entry of a pivot's column lying in a later
// pivot's row. The factors are the pivot sequence, the pivot diagonal, the
// off-diagonal entries re-indexed by pivot order — once by column for
// FTRAN and once by row for BTRAN — and the explicit inverse of K. Both
// solves skip zero components, so they cost O(m) plus the entries and the
// core rows and columns a sparse vector actually reaches, and at most
// O(nnz(B₀) + r²) for core size r; nothing of size m² is ever stored.
type basisFactors struct {
	pivRow, pivCol []int32   // pivot order → constraint row, basis position
	rowOrd, posOrd []int32   // constraint row, basis position → pivot order
	diag           []float64 // pivot diagonal (front and back pivots)
	// Off-diagonal entries of pivot o's column: lIdx/lVal[lPtr[o]:lPtr[o+1]],
	// lIdx the pivot order of the entry's row, always > o. A core column
	// keeps only its entries in back rows; its core-row entries are K's.
	lPtr, lIdx []int32
	lVal       []float64
	// The same entries by row: rIdx/rVal[rPtr[o]:rPtr[o+1]] are the entries
	// of pivot o's row, rIdx the pivot order of their column, always < o.
	rPtr, rIdx []int32
	rVal       []float64
	// The core occupies pivot positions [coreStart, coreStart+coreN):
	// coreInv[ci·coreN+k] is (K⁻¹)[ci][k] for core column ci and core row
	// k; cx and nz are the core solve scratch.
	coreStart, coreN int
	coreInv, cx      []float64
	nz               []int32
}

// ftran overwrites x, a vector over constraint rows, with B₀⁻¹x, a vector
// over basis positions. work is m-length scratch.
func (f *basisFactors) ftran(x, work []float64) {
	for o, k := range f.pivRow {
		work[o] = x[k]
	}
	f.ftranOrdered(work)
	for o, i := range f.pivCol {
		x[i] = work[o]
	}
}

// ftranOrdered solves B₀ in place on a vector in pivot order: block forward
// substitution, with the core block solved through K⁻¹. Slot o holds the
// right-hand side of row pivRow[o] on entry and the value of position
// pivCol[o] on exit.
func (f *basisFactors) ftranOrdered(work []float64) {
	m := len(f.pivRow)
	cs, r := f.coreStart, f.coreN
	f.forward(work, 0, cs)
	if r > 0 {
		cx, nz := f.cx[:r], f.nz[:0]
		for k := range cx {
			if cx[k] = work[cs+k]; cx[k] != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero residual contributes nothing to the core solve
				nz = append(nz, int32(k))
			}
		}
		f.nz = nz
		if len(nz) > 0 { // otherwise the core solution is zero already
			for ci := 0; ci < r; ci++ {
				row := f.coreInv[ci*r : ci*r+r]
				v := 0.0
				for _, k := range nz {
					v += row[k] * cx[k]
				}
				work[cs+ci] = v
				scatter(work, f.lPtr, f.lIdx, f.lVal, cs+ci, v)
			}
		}
	}
	f.forward(work, cs+r, m)
}

// btran overwrites y, a vector over basis positions, with yᵀB₀⁻¹, a vector
// over constraint rows. work is m-length scratch.
func (f *basisFactors) btran(y, work []float64) {
	for o, i := range f.pivCol {
		work[o] = y[i]
	}
	f.btranOrdered(work)
	for o, k := range f.pivRow {
		y[k] = work[o]
	}
}

// btranOrdered solves B₀ᵀ in place on a vector in pivot order: the
// substitution of ftranOrdered run backward over the factors' rows, with
// the core block solved through K⁻ᵀ. Slot o holds the right-hand side of
// position pivCol[o] on entry and the value of row pivRow[o] on exit.
func (f *basisFactors) btranOrdered(work []float64) {
	m := len(f.pivRow)
	cs, r := f.coreStart, f.coreN
	f.backward(work, cs+r, m)
	if r > 0 {
		cx := f.cx[:r]
		copy(cx, work[cs:cs+r])
		for k := range cx {
			work[cs+k] = 0
		}
		for ci, v := range cx {
			if v == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero right-hand side contributes nothing to the core solve
				continue
			}
			row := f.coreInv[ci*r : ci*r+r]
			for k := range row {
				work[cs+k] += row[k] * v
			}
		}
		for k := cs; k < cs+r; k++ {
			scatter(work, f.rPtr, f.rIdx, f.rVal, k, work[k])
		}
	}
	f.backward(work, 0, cs)
}

// forward runs FTRAN's substitution steps for the single pivots in
// [from, to), first to last.
func (f *basisFactors) forward(work []float64, from, to int) {
	for o := from; o < to; o++ {
		if v := work[o]; v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero residual needs no substitution step
			v /= f.diag[o] // every diagonal passed the peel's |·| > num.SingularTol check
			work[o] = v
			scatter(work, f.lPtr, f.lIdx, f.lVal, o, v)
		}
	}
}

// backward runs BTRAN's substitution steps for the single pivots in
// [from, to), last to first.
func (f *basisFactors) backward(work []float64, from, to int) {
	for o := to - 1; o >= from; o-- {
		if v := work[o]; v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero residual needs no substitution step
			v /= f.diag[o] // every diagonal passed the peel's |·| > num.SingularTol check
			work[o] = v
			scatter(work, f.rPtr, f.rIdx, f.rVal, o, v)
		}
	}
}

// scatter subtracts v times the entries of line o of a pivot-ordered
// sparse matrix from work.
func scatter(work []float64, ptr, idx []int32, val []float64, o int, v float64) {
	if v == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero multiplier updates nothing
		return
	}
	for t := ptr[o]; t < ptr[o+1]; t++ {
		work[idx[t]] -= val[t] * v
	}
}

// peelScratch holds the working buffers of the triangular peel, kept on
// the simplex so pooled solvers reuse them across factorisations.
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
	backRow, backCol []int32
	core             []float64 // the r×r core block K, eliminated in place
	// work is the m-length FTRAN/BTRAN scratch of the current factors.
	work []float64
}

// peelBasis factorises the current basis matrix into f by two-sided
// singleton peeling. Scenario-tree bases are near-triangular: repeatedly
// removing rows with a single active nonzero (collected front-to-back) and
// columns with a single active nonzero (collected back-to-front) yields a
// row/column permutation under which B is block lower triangular — the
// peel performs no arithmetic, so there is no fill-in and no growth.
// Whatever irreducible core ("bump") remains when both singleton supplies
// run dry — e.g. the α/χ forcing–valid 4-cycles at fractional SRRP
// vertices — sits as one dense diagonal block between the front and back
// pivots: front rows are zero in every core and back column (those columns
// were still active when the front row shrank to a singleton), and core
// rows are zero in every back column (a back column's single active entry
// was in an already-eliminated row). The core is inverted densely, O(r³);
// a basis without singletons is one dense core, as costly as Gauss–Jordan
// on B. It reports false when a row or column empties unpivoted
// (structurally singular) or when any pivot is numerically negligible.
func (s *simplex) peelBasis(f *basisFactors) bool {
	m := s.m
	ps := &s.peel
	cs := &s.csc
	// ---- Build the column structure of B. ----
	maxNNZ := cs.nnz() + m // every unit column contributes one entry
	ps.colPtr = growInt32(ps.colPtr, m+1)
	ps.colRow = growInt32(ps.colRow, maxNNZ)
	ps.colVal = growFloat(ps.colVal, maxNNZ)
	pos := int32(0)
	for i := 0; i < m; i++ {
		ps.colPtr[i] = pos
		j := s.basis[i]
		switch {
		case j < s.n:
			for t := cs.colPtr[j]; t < cs.colPtr[j+1]; t++ {
				ps.colRow[pos] = cs.rowIdx[t]
				ps.colVal[pos] = cs.val[t]
				pos++
			}
		case j < s.nTot:
			ps.colRow[pos] = int32(j - s.n)
			ps.colVal[pos] = 1
			pos++
		default:
			ps.colRow[pos] = int32(j - s.nTot)
			ps.colVal[pos] = s.artSgn[j-s.nTot]
			pos++
		}
	}
	ps.colPtr[m] = pos
	nnzB := int(pos)
	// ---- Derive the row structure. ----
	ps.rowCnt = growInt32(ps.rowCnt, m)
	ps.colCnt = growInt32(ps.colCnt, m)
	for k := 0; k < m; k++ {
		ps.rowCnt[k] = 0
	}
	for i := 0; i < m; i++ {
		ps.colCnt[i] = ps.colPtr[i+1] - ps.colPtr[i]
		for t := ps.colPtr[i]; t < ps.colPtr[i+1]; t++ {
			ps.rowCnt[ps.colRow[t]]++
		}
	}
	ps.rowPtr = growInt32(ps.rowPtr, m+1)
	ps.rowEnt = growInt32(ps.rowEnt, nnzB)
	ps.rowVal = growFloat(ps.rowVal, nnzB)
	ps.cursor = growInt32(ps.cursor, m)
	acc := int32(0)
	for k := 0; k < m; k++ {
		ps.rowPtr[k] = acc
		ps.cursor[k] = acc
		acc += ps.rowCnt[k]
	}
	ps.rowPtr[m] = acc
	for i := 0; i < m; i++ {
		for t := ps.colPtr[i]; t < ps.colPtr[i+1]; t++ {
			k := ps.colRow[t]
			ps.rowEnt[ps.cursor[k]] = int32(i)
			ps.rowVal[ps.cursor[k]] = ps.colVal[t]
			ps.cursor[k]++
		}
	}
	// ---- Two-sided singleton peel. ----
	ps.rowDone = growBool(ps.rowDone, m)
	ps.colDone = growBool(ps.colDone, m)
	for k := 0; k < m; k++ {
		ps.rowDone[k], ps.colDone[k] = false, false
	}
	ps.stackR = ps.stackR[:0]
	ps.stackC = ps.stackC[:0]
	for k := 0; k < m; k++ {
		switch ps.rowCnt[k] {
		case 0:
			return false // empty row: structurally singular
		case 1:
			ps.stackR = append(ps.stackR, int32(k))
		}
	}
	for i := 0; i < m; i++ {
		switch ps.colCnt[i] {
		case 0:
			return false // empty column: structurally singular
		case 1:
			ps.stackC = append(ps.stackC, int32(i))
		}
	}
	f.pivRow = growInt32(f.pivRow, m)
	f.pivCol = growInt32(f.pivCol, m)
	f.diag = growFloat(f.diag, m)
	ps.backRow = ps.backRow[:0]
	ps.backCol = ps.backCol[:0]
	nFront := 0
	done := 0
	eliminate := func(k, i int32) bool {
		ps.rowDone[k], ps.colDone[i] = true, true
		done++
		for t := ps.rowPtr[k]; t < ps.rowPtr[k+1]; t++ {
			if i2 := ps.rowEnt[t]; !ps.colDone[i2] {
				ps.colCnt[i2]--
				if ps.colCnt[i2] == 1 {
					ps.stackC = append(ps.stackC, i2)
				} else if ps.colCnt[i2] == 0 {
					return false // column emptied without being pivoted
				}
			}
		}
		for t := ps.colPtr[i]; t < ps.colPtr[i+1]; t++ {
			if k2 := ps.colRow[t]; !ps.rowDone[k2] {
				ps.rowCnt[k2]--
				if ps.rowCnt[k2] == 1 {
					ps.stackR = append(ps.stackR, k2)
				} else if ps.rowCnt[k2] == 0 {
					return false // row emptied without being pivoted
				}
			}
		}
		return true
	}
	for done < m {
		if len(ps.stackR) > 0 {
			k := ps.stackR[len(ps.stackR)-1]
			ps.stackR = ps.stackR[:len(ps.stackR)-1]
			if ps.rowDone[k] {
				continue
			}
			// The row's single active entry is the pivot.
			piv, pv := int32(-1), 0.0
			for t := ps.rowPtr[k]; t < ps.rowPtr[k+1]; t++ {
				if i := ps.rowEnt[t]; !ps.colDone[i] {
					piv, pv = i, ps.rowVal[t]
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
		if len(ps.stackC) > 0 {
			i := ps.stackC[len(ps.stackC)-1]
			ps.stackC = ps.stackC[:len(ps.stackC)-1]
			if ps.colDone[i] {
				continue
			}
			piv := int32(-1)
			for t := ps.colPtr[i]; t < ps.colPtr[i+1]; t++ {
				if k := ps.colRow[t]; !ps.rowDone[k] {
					piv = k
					break
				}
			}
			if piv < 0 {
				return false
			}
			ps.backRow = append(ps.backRow, piv)
			ps.backCol = append(ps.backCol, i)
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
	if coreN > 0 {
		ci, cj := coreStart, coreStart
		for k := 0; k < m; k++ {
			if !ps.rowDone[k] {
				f.pivRow[ci] = int32(k)
				ci++
			}
		}
		for i := 0; i < m; i++ {
			if !ps.colDone[i] {
				f.pivCol[cj] = int32(i)
				cj++
			}
		}
		if ci != coreEnd || cj != coreEnd {
			return false // row/column deficit: structurally singular
		}
	}
	nBack := len(ps.backRow)
	for t := 0; t < nBack; t++ {
		o := coreEnd + t
		f.pivRow[o] = ps.backRow[nBack-1-t]
		f.pivCol[o] = ps.backCol[nBack-1-t]
	}
	f.rowOrd = growInt32(f.rowOrd, m)
	f.posOrd = growInt32(f.posOrd, m)
	for o := 0; o < m; o++ {
		f.rowOrd[f.pivRow[o]] = int32(o)
		f.posOrd[f.pivCol[o]] = int32(o)
	}
	// ---- Off-diagonal storage in pivot order, the core block, and the
	// back-pivot diagonals (not recorded in order during the peel). ----
	f.coreStart, f.coreN = coreStart, coreN
	ps.core = growFloat(ps.core, coreN*coreN)
	for t := range ps.core {
		ps.core[t] = 0
	}
	f.lPtr = growInt32(f.lPtr, m+1)
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	for o := 0; o < m; o++ {
		f.lPtr[o] = int32(len(f.lIdx))
		i := f.pivCol[o]
		inCore := o >= coreStart && o < coreEnd
		for t := ps.colPtr[i]; t < ps.colPtr[i+1]; t++ {
			o2 := int(f.rowOrd[ps.colRow[t]])
			switch {
			case inCore && o2 >= coreStart && o2 < coreEnd:
				ps.core[(o2-coreStart)*coreN+o-coreStart] = ps.colVal[t]
			case o2 > o && (!inCore || o2 >= coreEnd):
				f.lIdx = append(f.lIdx, int32(o2))
				f.lVal = append(f.lVal, ps.colVal[t])
			case o2 == o && !inCore:
				f.diag[o] = ps.colVal[t]
			default:
				return false // not block lower triangular: cannot happen
			}
		}
	}
	f.lPtr[m] = int32(len(f.lIdx))
	// The row-wise copy, by counting sort on the row order.
	f.rPtr = growInt32(f.rPtr, m+1)
	for o := range f.rPtr {
		f.rPtr[o] = 0
	}
	for _, o2 := range f.lIdx {
		f.rPtr[o2+1]++
	}
	for o := 0; o < m; o++ {
		f.rPtr[o+1] += f.rPtr[o]
		ps.cursor[o] = f.rPtr[o]
	}
	f.rIdx = growInt32(f.rIdx, len(f.lIdx))
	f.rVal = growFloat(f.rVal, len(f.lIdx))
	for o := 0; o < m; o++ {
		for t := f.lPtr[o]; t < f.lPtr[o+1]; t++ {
			at := ps.cursor[f.lIdx[t]]
			f.rIdx[at], f.rVal[at] = int32(o), f.lVal[t]
			ps.cursor[f.lIdx[t]]++
		}
	}
	for o := coreEnd; o < m; o++ {
		if math.Abs(f.diag[o]) <= num.SingularTol {
			return false
		}
	}
	return f.invertCore(ps.core, coreN)
}

// invertCore computes the explicit inverse of the r×r core block k (entry
// (core row, core column) at row·r+column) by Gauss–Jordan with partial
// pivoting, destroying k. Returns false on a negligible pivot.
func (f *basisFactors) invertCore(k []float64, r int) bool {
	f.coreInv = growFloat(f.coreInv, r*r)
	f.cx = growFloat(f.cx, r)
	inv := f.coreInv
	for t := range inv {
		inv[t] = 0
	}
	for ci := 0; ci < r; ci++ {
		inv[ci*r+ci] = 1
	}
	for c := 0; c < r; c++ {
		// Partial pivoting: swap up the largest remaining entry in column c.
		best, bestAbs := c, math.Abs(k[c*r+c])
		for q := c + 1; q < r; q++ {
			if a := math.Abs(k[q*r+c]); a > bestAbs {
				best, bestAbs = q, a
			}
		}
		if bestAbs <= num.SingularTol {
			return false
		}
		if best != c {
			for t := 0; t < r; t++ {
				k[best*r+t], k[c*r+t] = k[c*r+t], k[best*r+t]
				inv[best*r+t], inv[c*r+t] = inv[c*r+t], inv[best*r+t]
			}
		}
		//lint:ignore rentlint/nanprop the pivot passed the |·| > num.SingularTol check above
		pinv := 1 / k[c*r+c]
		for t := 0; t < r; t++ {
			k[c*r+t] *= pinv
			inv[c*r+t] *= pinv
		}
		for q := 0; q < r; q++ {
			if q == c {
				continue
			}
			g := k[q*r+c]
			if g == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero multiplier leaves the row untouched
				continue
			}
			for t := 0; t < r; t++ {
				k[q*r+t] -= g * k[c*r+t]
				inv[q*r+t] -= g * inv[c*r+t]
			}
		}
	}
	return true
}

// growBool is growFloat for []bool.
func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
