package lp

// eta.go implements the product-form eta file shared by every simplex
// path — primal, repair, artificial eviction and dual. After k basis
// exchanges the current basis inverse is
//
//	B⁻¹ = E_k · E_{k-1} ··· E_1 · B₀⁻¹
//
// where B₀ is the basis at the last factorisation, held as the triangular
// peel's factors (simplex.lu, factor.go), and each E is an elementary
// matrix differing from the identity in a single column. A basis exchange
// costs O(nnz(spike)) to record; FTRAN solves with the factors and then
// applies the etas in order, BTRAN applies them in reverse and then solves
// with the factors' transpose.
//
// The file is the one refactorisation trigger: once it holds etaCapMax
// etas or its stored fill passes etaSpikeFactor·m nonzeros, the basis is
// re-peeled from its columns and the basic values are recomputed, which
// also contains drift.

const (
	// etaCapMax bounds the eta-file depth: past it, applying the file to
	// every FTRAN/BTRAN costs more than one refactorisation amortises.
	etaCapMax = 64
	// etaSpikeFactor bounds the stored eta fill at etaSpikeFactor·m
	// nonzeros: dense spikes both slow the file down and accumulate drift
	// faster, so they trigger the refactorisation earlier.
	etaSpikeFactor = 8
)

// etaFile is the update stack. All storage is flat and pooled with the
// owning simplex, so steady-state re-solves allocate nothing.
type etaFile struct {
	pivRow []int32   // pivot row of each eta
	pivInv []float64 // diagonal entry 1/w_r of each eta
	start  []int32   // off-diagonal span per eta: idx/val[start[k]:start[k+1]]
	idx    []int32   // off-diagonal row indices
	val    []float64 // off-diagonal values −w_i/w_r
}

func (e *etaFile) reset() {
	e.pivRow = e.pivRow[:0]
	e.pivInv = e.pivInv[:0]
	e.idx = e.idx[:0]
	e.val = e.val[:0]
	if cap(e.start) == 0 {
		e.start = make([]int32, 1, 16)
	}
	e.start = e.start[:1]
	e.start[0] = 0
}

func (e *etaFile) count() int { return len(e.pivRow) }
func (e *etaFile) nnz() int   { return len(e.idx) }

// push records the elementary update of a basis exchange with spike
// w = B⁻¹A_enter, nonzero only at positions nz, and pivot row r. The
// caller guarantees |w[r]| is above its ratio test's pivot threshold.
func (e *etaFile) push(r int, w []float64, nz []int32) {
	//lint:ignore rentlint/nanprop every ratio test admits only pivots with |w[r]| above a positive threshold
	inv := 1 / w[r]
	e.pivRow = append(e.pivRow, int32(r))
	e.pivInv = append(e.pivInv, inv)
	for _, i := range nz {
		if int(i) != r {
			e.idx = append(e.idx, i)
			e.val = append(e.val, -w[i]*inv)
		}
	}
	e.start = append(e.start, int32(len(e.idx)))
}

// ftranApply maps x ← E_k···E_1·x in place, one eta at a time. Each eta
// only scales component p and adds multiples of the (pre-update) x_p to its
// off-diagonal rows, so a zero x_p makes the whole eta a no-op.
func (e *etaFile) ftranApply(x []float64) {
	for k := 0; k < len(e.pivRow); k++ {
		p := e.pivRow[k]
		xp := x[p]
		if xp == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: the eta scales/adds multiples of x_p only
			continue
		}
		x[p] = e.pivInv[k] * xp
		for t := e.start[k]; t < e.start[k+1]; t++ {
			x[e.idx[t]] += e.val[t] * xp
		}
	}
}

// btranApply maps the row vector yᵀ ← yᵀ·E_k···E_1 in place, last eta
// first. Multiplying a row vector by one eta changes only the eta's pivot
// component, which becomes the dot product of y with the eta's column.
func (e *etaFile) btranApply(y []float64) {
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		p := e.pivRow[k]
		acc := y[p] * e.pivInv[k]
		for t := e.start[k]; t < e.start[k+1]; t++ {
			acc += y[e.idx[t]] * e.val[t]
		}
		y[p] = acc
	}
}

// ftran overwrites x, a vector over constraint rows, with B⁻¹x, a vector
// over basis positions: the factors first, then every eta in order.
func (s *simplex) ftran(x []float64) {
	s.lu.ftran(x, s.peel.work)
	s.eta.ftranApply(x)
}

// btran overwrites y, a vector over basis positions, with yᵀB⁻¹, a vector
// over constraint rows: every eta in reverse order, then the factors.
func (s *simplex) btran(y []float64) {
	s.eta.btranApply(y)
	s.lu.btran(y, s.peel.work)
}

// ftranSpike computes the spike s.w = B⁻¹A_j of entering column j and
// lists its nonzero positions in s.wnz, so that the ratio test, the
// basic-value update and the eta push visit only those.
func (s *simplex) ftranSpike(j int) {
	s.ftranInto(j, s.w)
	nz := s.wnz[:0]
	for i, v := range s.w {
		if v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: only nonzero spike entries move a basic value
			nz = append(nz, int32(i))
		}
	}
	s.wnz = nz
}

// ftranInto computes dst = B⁻¹·A_j, scattering the column's few nonzeros
// straight into pivot order.
func (s *simplex) ftranInto(j int, dst []float64) {
	f, work := &s.lu, s.peel.work
	clear(work)
	switch {
	case j < s.n:
		c := &s.csc
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			work[f.rowOrd[c.rowIdx[t]]] = c.val[t]
		}
	case j < s.nTot:
		work[f.rowOrd[j-s.n]] = 1
	default:
		work[f.rowOrd[j-s.nTot]] = s.artSgn[j-s.nTot]
	}
	f.ftranOrdered(work)
	for o, i := range f.pivCol {
		dst[i] = work[o]
	}
	s.eta.ftranApply(dst)
}

// btranRow computes s.rowr = row r of B⁻¹, i.e. e_rᵀB⁻¹, and lists its
// nonzero positions in s.rownz. Through the eta file the unit vector gains
// nonzeros only at the etas' pivot positions, so only those are carried
// into pivot order.
func (s *simplex) btranRow(r int) {
	f, work, dst := &s.lu, s.peel.work, s.rowr
	clear(dst)
	dst[r] = 1
	s.eta.btranApply(dst)
	clear(work)
	work[f.posOrd[r]] = dst[r]
	for _, p := range s.eta.pivRow {
		work[f.posOrd[p]] = dst[p]
	}
	f.btranOrdered(work)
	clear(dst)
	nz := s.rownz[:0]
	for o, v := range work {
		if v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: the row is stored sparse
			k := f.pivRow[o]
			dst[k] = v
			nz = append(nz, k)
		}
	}
	s.rownz = nz
}

// factorize peels the current basis into fresh factors and empties the eta
// file. The factors are built into the spare set and swapped in only on
// success, so a numerically singular basis leaves the current factors and
// eta file — still a valid representation of B⁻¹ — untouched.
func (s *simplex) factorize() bool {
	if !s.peelBasis(&s.luSpare) {
		return false
	}
	s.lu, s.luSpare = s.luSpare, s.lu
	s.eta.reset()
	return true
}

// refactor re-factorises the basis and recomputes the basic values from
// the nonbasic rest values, containing the drift of the update sequence.
// A numerically singular basis keeps its factors, eta file and values.
func (s *simplex) refactor() bool {
	if !s.factorize() {
		return false
	}
	s.refactorizations++
	s.computeBasicValues()
	return true
}

// pushEta records the basis exchange at row r with the spike ftranSpike
// left in s.w, and refactorises once the eta file reaches its count or fill
// cap. It reports whether it refactorised. A basis too close to singular
// to re-peel keeps its etas, which still represent B⁻¹, and every later
// push tries again.
func (s *simplex) pushEta(r int) bool {
	s.eta.push(r, s.w, s.wnz)
	if s.eta.count() < etaCapMax && s.eta.nnz() < etaSpikeFactor*s.m {
		return false
	}
	return s.refactor()
}
