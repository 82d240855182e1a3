package grb

import (
	"fmt"
	"sort"
	"strings"
)

// Vector is a sparse GraphBLAS vector of float64 values.
//
// Internally it is dual-mode, like SuiteSparse's sparse/bitmap formats: a
// sorted coordinate list while sparse, and a dense value array plus a
// word-packed presence bitmap once the fill ratio crosses a threshold.
// Traversal frontiers start sparse and densify as BFS expands; the bitmap
// form gives mask probes and the pull (dot-product) kernels O(1) membership
// tests, and conversion in either direction is a single linear pass.
type Vector struct {
	n     int
	dense bool

	// sparse mode: parallel slices sorted by index
	ind []Index
	val []float64

	// bitmap (dense) mode
	dval  []float64
	dbits bitset
	nnz   int
}

// denseThreshold is the fill ratio above which a vector converts to dense.
const denseThreshold = 8 // convert when nnz > n/denseThreshold

// DenseThreshold is the sparse→bitmap flip ratio: a vector converts to
// bitmap form once nnz · DenseThreshold > n. Exported so kernel choosers
// can align their push/pull density heuristics with the representation
// switch.
const DenseThreshold = denseThreshold

// NewVector returns an empty vector of the given size.
func NewVector(n int) *Vector {
	if n < 0 {
		panic("grb: negative vector size")
	}
	return &Vector{n: n}
}

// VectorFromMap builds a vector from an index→value map.
func VectorFromMap(n int, entries map[Index]float64) *Vector {
	v := NewVector(n)
	for i, x := range entries {
		v.SetElement(i, x)
	}
	return v
}

// Size returns the vector's dimension.
func (v *Vector) Size() int { return v.n }

// NVals returns the number of stored entries.
func (v *Vector) NVals() int {
	if v.dense {
		return v.nnz
	}
	return len(v.ind)
}

// Clear removes all entries, keeping the dimension.
func (v *Vector) Clear() {
	v.dense = false
	v.ind = v.ind[:0]
	v.val = v.val[:0]
	v.dval = nil
	v.dbits = nil
	v.nnz = 0
}

// Dup returns a deep copy.
func (v *Vector) Dup() *Vector {
	w := &Vector{n: v.n, dense: v.dense, nnz: v.nnz}
	if v.dense {
		w.dval = append([]float64(nil), v.dval...)
		w.dbits = append(bitset(nil), v.dbits...)
	} else {
		w.ind = append([]Index(nil), v.ind...)
		w.val = append([]float64(nil), v.val...)
	}
	return w
}

// Resize changes the dimension, dropping entries at indices >= n.
func (v *Vector) Resize(n int) {
	if n < 0 {
		panic("grb: negative vector size")
	}
	if n == v.n {
		return
	}
	if v.dense {
		v.toSparse()
	}
	keep := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= n })
	v.ind = v.ind[:keep]
	v.val = v.val[:keep]
	v.n = n
	v.maybeDensify()
}

// SetElement stores value x at index i, overwriting any existing entry.
func (v *Vector) SetElement(i Index, x float64) error {
	if i < 0 || i >= v.n {
		return boundsErr("vector index %d size %d", i, v.n)
	}
	if v.dense {
		if !v.dbits.get(i) {
			v.dbits.set(i)
			v.nnz++
		}
		v.dval[i] = x
		return nil
	}
	k := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= i })
	if k < len(v.ind) && v.ind[k] == i {
		v.val[k] = x
		return nil
	}
	v.ind = append(v.ind, 0)
	v.val = append(v.val, 0)
	copy(v.ind[k+1:], v.ind[k:])
	copy(v.val[k+1:], v.val[k:])
	v.ind[k] = i
	v.val[k] = x
	v.maybeDensify()
	return nil
}

// ExtractElement returns the entry at index i, or ErrNoValue if absent.
func (v *Vector) ExtractElement(i Index) (float64, error) {
	if i < 0 || i >= v.n {
		return 0, boundsErr("vector index %d size %d", i, v.n)
	}
	if v.dense {
		if v.dbits.get(i) {
			return v.dval[i], nil
		}
		return 0, ErrNoValue
	}
	k := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= i })
	if k < len(v.ind) && v.ind[k] == i {
		return v.val[k], nil
	}
	return 0, ErrNoValue
}

// RemoveElement deletes the entry at index i if present.
func (v *Vector) RemoveElement(i Index) error {
	if i < 0 || i >= v.n {
		return boundsErr("vector index %d size %d", i, v.n)
	}
	if v.dense {
		if v.dbits.get(i) {
			v.dbits.unset(i)
			v.dval[i] = 0
			v.nnz--
		}
		return nil
	}
	k := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= i })
	if k < len(v.ind) && v.ind[k] == i {
		v.ind = append(v.ind[:k], v.ind[k+1:]...)
		v.val = append(v.val[:k], v.val[k+1:]...)
	}
	return nil
}

// Build populates an empty vector from parallel index/value slices.
// Duplicate indices are combined with dup (Second, i.e. last-wins, if dup is
// the zero BinaryOp).
func (v *Vector) Build(indices []Index, values []float64, dup BinaryOp) error {
	if len(indices) != len(values) {
		return dimErr("build: %d indices, %d values", len(indices), len(values))
	}
	if v.NVals() != 0 {
		return fmt.Errorf("%w: build target not empty", ErrInvalidValue)
	}
	if dup.F == nil {
		dup = Second
	}
	type iv struct {
		i Index
		v float64
	}
	tmp := make([]iv, len(indices))
	for k, i := range indices {
		if i < 0 || i >= v.n {
			return boundsErr("build index %d size %d", i, v.n)
		}
		tmp[k] = iv{i, values[k]}
	}
	sort.SliceStable(tmp, func(a, b int) bool { return tmp[a].i < tmp[b].i })
	for _, e := range tmp {
		if k := len(v.ind); k > 0 && v.ind[k-1] == e.i {
			v.val[k-1] = dup.F(v.val[k-1], e.v)
		} else {
			v.ind = append(v.ind, e.i)
			v.val = append(v.val, e.v)
		}
	}
	v.maybeDensify()
	return nil
}

// UnionInPlace adds every entry of u that v lacks to v, in place: the
// structural OR of the two patterns without building a merged copy.
// Indices present in both keep v's value. Once the union crosses the
// bitmap fill ratio v flips to bitmap form, so later probes of v — a BFS
// visited set used as a complemented mask — are O(1).
func (v *Vector) UnionInPlace(u *Vector) error {
	if u.n != v.n {
		return dimErr("union: v has size %d, u has size %d", v.n, u.n)
	}
	if u.dense {
		// A bitmap-form u is past the fill ratio, and so is the union.
		v.toDense()
	}
	if v.dense {
		u.Iterate(func(i Index, x float64) bool {
			if !v.dbits.get(i) {
				v.dbits.set(i)
				v.dval[i] = x
				v.nnz++
			}
			return true
		})
		return nil
	}
	ui, uv := u.ind, u.val
	added := 0
	for a, b := 0, 0; b < len(ui); {
		switch {
		case a < len(v.ind) && v.ind[a] < ui[b]:
			a++
		case a < len(v.ind) && v.ind[a] == ui[b]:
			a++
			b++
		default:
			added++
			b++
		}
	}
	if added == 0 {
		return nil
	}
	if (len(v.ind)+added)*denseThreshold > v.n {
		v.toDense()
		return v.UnionInPlace(u)
	}
	// Merge backwards into the grown slices so no entry moves twice.
	a, b := len(v.ind)-1, len(ui)-1
	v.ind = append(v.ind, make([]Index, added)...)
	v.val = append(v.val, make([]float64, added)...)
	for k := len(v.ind) - 1; b >= 0; k-- {
		switch {
		case a >= 0 && v.ind[a] > ui[b]:
			v.ind[k], v.val[k] = v.ind[a], v.val[a]
			a--
		case a >= 0 && v.ind[a] == ui[b]:
			v.ind[k], v.val[k] = v.ind[a], v.val[a]
			a--
			b--
		default:
			v.ind[k], v.val[k] = ui[b], uv[b]
			b--
		}
	}
	return nil
}

// ExtractTuples returns the entries as sorted parallel slices.
func (v *Vector) ExtractTuples() ([]Index, []float64) {
	if !v.dense {
		return append([]Index(nil), v.ind...), append([]float64(nil), v.val...)
	}
	ind := make([]Index, 0, v.nnz)
	val := make([]float64, 0, v.nnz)
	v.dbits.iterate(func(i Index) bool {
		ind = append(ind, i)
		val = append(val, v.dval[i])
		return true
	})
	return ind, val
}

// Iterate calls fn for each entry in ascending index order. fn returning
// false stops the iteration.
func (v *Vector) Iterate(fn func(i Index, x float64) bool) {
	if v.dense {
		v.dbits.iterate(func(i Index) bool { return fn(i, v.dval[i]) })
		return
	}
	for k, i := range v.ind {
		if !fn(i, v.val[k]) {
			return
		}
	}
}

// get is the kernel-side lookup; no bounds check. In bitmap mode it is O(1),
// which is what makes dense frontiers cheap to probe as masks.
func (v *Vector) get(i Index) (float64, bool) {
	if v.dense {
		return v.dval[i], v.dbits.get(i)
	}
	k := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= i })
	if k < len(v.ind) && v.ind[k] == i {
		return v.val[k], true
	}
	return 0, false
}

// maskAllows reports whether a write to index i is permitted under this
// vector as mask with the given complement/structure flags. A nil receiver
// permits everything.
func (v *Vector) maskAllows(i Index, comp, structure bool) bool {
	if v == nil {
		// No mask: everything is writable. Per the GraphBLAS spec, the
		// complement of a missing mask is empty, so nothing is writable.
		return !comp
	}
	x, ok := v.get(i)
	in := ok && (structure || x != 0)
	if comp {
		return !in
	}
	return in
}

func (v *Vector) maybeDensify() {
	if !v.dense && v.n > 0 && len(v.ind)*denseThreshold > v.n {
		v.toDense()
	}
}

func (v *Vector) toDense() {
	if v.dense {
		return
	}
	v.dval = make([]float64, v.n)
	v.dbits = newBitset(v.n)
	for k, i := range v.ind {
		v.dval[i] = v.val[k]
		v.dbits.set(i)
	}
	v.nnz = len(v.ind)
	v.ind, v.val = nil, nil
	v.dense = true
}

func (v *Vector) toSparse() {
	if !v.dense {
		return
	}
	v.ind = make([]Index, 0, v.nnz)
	v.val = make([]float64, 0, v.nnz)
	v.dbits.iterate(func(i Index) bool {
		v.ind = append(v.ind, i)
		v.val = append(v.val, v.dval[i])
		return true
	})
	v.dval, v.dbits = nil, nil
	v.nnz = 0
	v.dense = false
}

// String renders small vectors for debugging and tests.
func (v *Vector) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Vector(n=%d, nvals=%d){", v.n, v.NVals())
	first := true
	v.Iterate(func(i Index, x float64) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d:%g", i, x)
		return true
	})
	b.WriteString("}")
	return b.String()
}
