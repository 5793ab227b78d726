package lp

import (
	"fmt"
	"math"
)

// SparseRow is one constraint row stored as parallel (column, value) slices
// with strictly increasing column indices. It is the row format of
// Problem.SA: scenario-tree models couple a handful of variables per row,
// so storing only the nonzeros keeps model construction O(nnz) per row
// instead of O(n).
type SparseRow struct {
	// Ix holds the column indices of the nonzeros, strictly increasing.
	Ix []int
	// V holds the coefficient values, parallel to Ix.
	V []float64
}

// NewSparseRow builds a normalised SparseRow from arbitrary (index, value)
// pairs: entries are sorted by column, duplicate columns are summed, and
// exact zeros dropped. The input slices are not retained.
func NewSparseRow(ix []int, v []float64) SparseRow {
	n := len(ix)
	outIx := make([]int, 0, n)
	outV := make([]float64, 0, n)
	for t := 0; t < n; t++ {
		j, val := ix[t], v[t]
		// Insertion sort: rows are tiny (a handful of tree-local couplings),
		// so the quadratic worst case never matters in practice.
		pos := len(outIx)
		for pos > 0 && outIx[pos-1] > j {
			pos--
		}
		if pos > 0 && outIx[pos-1] == j {
			outV[pos-1] += val
			continue
		}
		outIx = append(outIx, 0)
		outV = append(outV, 0)
		copy(outIx[pos+1:], outIx[pos:])
		copy(outV[pos+1:], outV[pos:])
		outIx[pos], outV[pos] = j, val
	}
	// Drop exact zeros (including any produced by duplicate cancellation).
	w := 0
	for t := range outIx {
		if outV[t] == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a stored zero coefficient contributes nothing to any row operation
			continue
		}
		outIx[w], outV[w] = outIx[t], outV[t]
		w++
	}
	return SparseRow{Ix: outIx[:w], V: outV[:w]}
}

// Clone returns a deep copy of the row.
func (r SparseRow) Clone() SparseRow {
	return SparseRow{
		Ix: append([]int(nil), r.Ix...),
		V:  append([]float64(nil), r.V...),
	}
}

// DenseRows converts dense coefficient rows into SparseRows, keeping only
// the nonzeros. It is the bridge for callers whose data is naturally dense
// (small recourse matrices, hand-written test programs): the result goes
// straight into Problem.SA.
func DenseRows(a [][]float64) []SparseRow {
	rows := make([]SparseRow, len(a))
	for i, row := range a {
		rows[i] = denseRow(row)
	}
	return rows
}

func denseRow(row []float64) SparseRow {
	ix := make([]int, 0, 4)
	v := make([]float64, 0, 4)
	for j, a := range row {
		if a == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a stored zero coefficient contributes nothing to any row operation
			continue
		}
		ix = append(ix, j)
		v = append(v, a)
	}
	return SparseRow{Ix: ix, V: v}
}

// AddRow appends one constraint row given in dense form; only its nonzeros
// are stored.
func (p *Problem) AddRow(row []float64, rel Rel, b float64) {
	p.SA = append(p.SA, denseRow(row))
	p.Rel = append(p.Rel, rel)
	p.B = append(p.B, b)
}

// AddSparseRow appends one constraint row given as (index, value) pairs.
// The entries are normalised (sorted, duplicates summed, exact zeros
// dropped).
func (p *Problem) AddSparseRow(ix []int, v []float64, rel Rel, b float64) {
	p.SA = append(p.SA, NewSparseRow(ix, v))
	p.Rel = append(p.Rel, rel)
	p.B = append(p.B, b)
}

// NNZ returns the number of structural nonzeros of the constraint matrix.
func (p *Problem) NNZ() int {
	nnz := 0
	for i := range p.SA {
		for _, v := range p.SA[i].V {
			if v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: counting stored zeros would overstate the structural nonzeros
				nnz++
			}
		}
	}
	return nnz
}

// RowDot returns the inner product of constraint row i with x.
func (p *Problem) RowDot(i int, x []float64) float64 {
	s := 0.0
	r := &p.SA[i]
	for t, j := range r.Ix {
		s += r.V[t] * x[j]
	}
	return s
}

// RowAbsSum returns Σ_j |A_ij| for constraint row i.
func (p *Problem) RowAbsSum(i int) float64 {
	s := 0.0
	for _, v := range p.SA[i].V {
		s += math.Abs(v)
	}
	return s
}

// validateRows checks the rows: parallel slices, a known relation, indices
// in range and strictly increasing, and finite values.
func (p *Problem) validateRows(n int) error {
	if len(p.SA) != len(p.B) || len(p.SA) != len(p.Rel) {
		return fmt.Errorf("lp: row count mismatch: |SA|=%d |B|=%d |Rel|=%d", len(p.SA), len(p.B), len(p.Rel))
	}
	for i := range p.SA {
		if rel := p.Rel[i]; rel != LE && rel != EQ && rel != GE {
			return fmt.Errorf("lp: row %d has unknown relation %v", i, rel)
		}
		r := &p.SA[i]
		if len(r.Ix) != len(r.V) {
			return fmt.Errorf("lp: sparse row %d has %d indices for %d values", i, len(r.Ix), len(r.V))
		}
		prev := -1
		for t, j := range r.Ix {
			if j < 0 || j >= n {
				return fmt.Errorf("lp: sparse row %d column %d out of range [0,%d)", i, j, n)
			}
			if j <= prev {
				return fmt.Errorf("lp: sparse row %d indices not strictly increasing at position %d", i, t)
			}
			prev = j
			if v := r.V[t]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: SA[%d] column %d is %g", i, j, v)
			}
		}
	}
	return nil
}

// cscMat is the compiled compressed-sparse-column form of the structural
// constraint matrix: column j's nonzeros live at positions
// colPtr[j]..colPtr[j+1] of rowIdx/val, with row indices strictly
// increasing within each column. It is compiled once per solve (never
// cached on the Problem — callers append cut rows and re-point matrices
// between solves) and is immutable for the solve's duration.
type cscMat struct {
	m, n   int
	colPtr []int32
	rowIdx []int32
	val    []float64
	next   []int32 // fill cursor scratch, len n
}

// nnz returns the stored nonzero count.
func (c *cscMat) nnz() int { return len(c.val) }

// compile rebuilds the CSC arrays from the problem's rows, reusing the
// receiver's buffers. Exact-zero entries are dropped: omitting a zero
// coefficient changes no inner product, for any rounding.
func (c *cscMat) compile(p *Problem) {
	m, n := p.NumRows(), p.NumVars()
	c.m, c.n = m, n
	c.colPtr = growInt32(c.colPtr, n+1)
	for j := range c.colPtr {
		c.colPtr[j] = 0
	}
	nnz := 0
	for i := range p.SA {
		r := &p.SA[i]
		for t, j := range r.Ix {
			if r.V[t] != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: dropping a zero coefficient changes no inner product
				c.colPtr[j+1]++
				nnz++
			}
		}
	}
	for j := 0; j < n; j++ {
		c.colPtr[j+1] += c.colPtr[j]
	}
	c.rowIdx = growInt32(c.rowIdx, nnz)
	c.val = growFloat(c.val, nnz)
	c.next = growInt32(c.next, n)
	copy(c.next, c.colPtr[:n])
	// Fill in row order so row indices come out strictly increasing within
	// each column.
	for i := range p.SA {
		r := &p.SA[i]
		for t, j := range r.Ix {
			if r.V[t] != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: dropping a zero coefficient changes no inner product
				pos := c.next[j]
				c.rowIdx[pos] = int32(i)
				c.val[pos] = r.V[t]
				c.next[j] = pos + 1
			}
		}
	}
}

// growFloat returns buf resized to n, reallocating only when the capacity
// is insufficient. Contents are unspecified.
func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growInt32 is growFloat for []int32.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growInt is growFloat for []int.
func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growStatus is growFloat for []varStatus.
func growStatus(buf []varStatus, n int) []varStatus {
	if cap(buf) < n {
		return make([]varStatus, n)
	}
	return buf[:n]
}
