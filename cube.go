package parcube

import (
	"fmt"
	"io"
	"math"
	"sort"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/cubeio"
	"parcube/internal/lattice"
	"parcube/internal/seq"
)

// Aggregator selects the aggregation operator applied while collapsing
// dimensions.
type Aggregator int

const (
	// Sum adds measure values (the paper's operator, and the default).
	Sum Aggregator = iota
	// Count counts contributing facts' cells.
	Count
	// Max keeps the maximum measure value.
	Max
	// Min keeps the minimum measure value.
	Min
)

// String names the aggregator.
func (a Aggregator) String() string { return a.op().String() }

// op converts to the internal operator.
func (a Aggregator) op() agg.Op {
	switch a {
	case Sum:
		return agg.Sum
	case Count:
		return agg.Count
	case Max:
		return agg.Max
	case Min:
		return agg.Min
	default:
		return agg.Op(-1)
	}
}

// Cube is a fully constructed data cube: every group-by of the schema's
// dimensions, queryable by dimension names.
type Cube struct {
	schema *Schema
	store  *seq.Store
	input  *array.Sparse
	op     agg.Op
}

// Schema returns the cube's schema.
func (c *Cube) Schema() *Schema { return c.schema }

// NumGroupBys returns the number of materialized group-bys (2^n - 1; the
// full-dimensional group-by is the dataset itself and is answered from it).
func (c *Cube) NumGroupBys() int { return c.store.Len() }

// maskOf resolves dimension names to a mask.
func (c *Cube) maskOf(names []string) (lattice.DimSet, error) {
	var mask lattice.DimSet
	for _, name := range names {
		i, ok := c.schema.Index(name)
		if !ok {
			return 0, fmt.Errorf("parcube: unknown dimension %q", name)
		}
		if mask.Has(i) {
			return 0, fmt.Errorf("parcube: dimension %q repeated", name)
		}
		mask = mask.With(i)
	}
	return mask, nil
}

// GroupBy returns the aggregate table retaining exactly the named
// dimensions. GroupBy() (no names) returns the grand total as a 0-D table.
// Naming every dimension materializes the original array densely.
func (c *Cube) GroupBy(names ...string) (*Table, error) {
	mask, err := c.maskOf(names)
	if err != nil {
		return nil, err
	}
	full := lattice.Full(c.schema.Dims())
	var a *array.Dense
	if mask == full {
		if c.input == nil {
			return nil, fmt.Errorf("parcube: the full group-by needs the original dataset, which a snapshot-loaded cube does not carry")
		}
		a = c.input.ToDense()
	} else {
		stored, ok := c.store.Get(mask)
		if !ok {
			return nil, fmt.Errorf("parcube: group-by %v not materialized", names)
		}
		a = stored
	}
	dims := mask.Dims()
	tableNames := make([]string, len(dims))
	for i, d := range dims {
		tableNames[i] = c.schema.names[d]
	}
	return &Table{names: tableNames, mask: mask, data: a, schemaNames: c.schema.Names(), op: c.op}, nil
}

// Total returns the grand-total aggregate over all dimensions.
func (c *Cube) Total() float64 {
	a, ok := c.store.Get(0)
	if !ok {
		return 0
	}
	return a.Scalar()
}

// WriteSnapshot serializes the cube's group-bys in the library's binary
// snapshot format.
func (c *Cube) WriteSnapshot(w io.Writer) error {
	return cubeio.WriteSnapshot(w, c.store)
}

// Table is one group-by of the cube.
type Table struct {
	names       []string
	schemaNames []string
	mask        lattice.DimSet
	data        *array.Dense
	op          agg.Op
	// lo and hi bound, per schema dimension, the global coordinates of the
	// facts the table aggregates; on a retained dimension lo is also the
	// global coordinate of index 0, which Dice re-bases. Nil means
	// unbounded with origin 0. rebinned marks a table whose axes no longer
	// map to schema coordinates (a hierarchy roll-up). Slab reads them.
	lo, hi   []int
	rebinned bool
}

// Dims returns the table's dimension names, in schema order.
func (t *Table) Dims() []string { return append([]string(nil), t.names...) }

// Shape returns the table's extents, aligned with Dims.
func (t *Table) Shape() []int { return append([]int(nil), t.data.Shape()...) }

// Size returns the number of cells.
func (t *Table) Size() int { return t.data.Size() }

// At returns the aggregate at integer coordinates in Dims order. A 0-D
// table (the grand total) takes no coordinates.
func (t *Table) At(coords ...int) float64 { return t.data.At(coords...) }

// Value returns the aggregate with coordinates keyed by dimension name.
func (t *Table) Value(coords map[string]int) (float64, error) {
	if len(coords) != len(t.names) {
		return 0, fmt.Errorf("parcube: %d coordinates for %d dimensions", len(coords), len(t.names))
	}
	ordered := make([]int, len(t.names))
	for name, c := range coords {
		found := false
		for i, n := range t.names {
			if n == name {
				ordered[i] = c
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("parcube: dimension %q not in this group-by", name)
		}
	}
	return t.data.At(ordered...), nil
}

// WriteCSV writes the table as CSV: dimension-name header plus "value",
// one row per cell.
func (t *Table) WriteCSV(w io.Writer) error {
	return cubeio.WriteGroupByCSV(w, t.schemaNames, t.mask, t.data)
}

// Top returns the k cells with the largest aggregates, ties broken by
// ascending coordinates.
func (t *Table) Top(k int) []CellValue {
	shape := t.data.Shape()
	out := make([]CellValue, 0, t.data.Size())
	coords := make([]int, shape.Rank())
	for off := 0; off < t.data.Size(); off++ {
		shape.Coords(off, coords)
		out = append(out, CellValue{
			Coords: append([]int(nil), coords...),
			Value:  t.data.Data()[off],
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// bounds returns fresh copies of the table's per-schema-dimension fact
// bounds, unbounded ones as [0, MaxInt).
func (t *Table) bounds() (lo, hi []int) {
	n := len(t.schemaNames)
	lo, hi = make([]int, n), make([]int, n)
	if t.lo == nil {
		for i := range hi {
			hi[i] = math.MaxInt
		}
		return lo, hi
	}
	copy(lo, t.lo)
	copy(hi, t.hi)
	return lo, hi
}

// CellValue is one cell of a table with its coordinates.
type CellValue struct {
	Coords []int
	Value  float64
}

// axisOf resolves a dimension name to the table's axis index.
func (t *Table) axisOf(name string) (int, error) {
	for i, n := range t.names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("parcube: dimension %q not in this group-by", name)
}

// Slice fixes one dimension at an index and returns the lower-dimensional
// table — the OLAP slice operation (e.g. "sales for branch 3 by item").
func (t *Table) Slice(name string, index int) (*Table, error) {
	axis, err := t.axisOf(name)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= t.data.Shape()[axis] {
		return nil, fmt.Errorf("parcube: index %d out of range for %q", index, name)
	}
	names := make([]string, 0, len(t.names)-1)
	names = append(names, t.names[:axis]...)
	names = append(names, t.names[axis+1:]...)
	schemaIdx := t.mask.Dims()[axis]
	lo, hi := t.bounds()
	lo[schemaIdx] += index
	hi[schemaIdx] = lo[schemaIdx] + 1
	return &Table{
		names:       names,
		schemaNames: t.schemaNames,
		mask:        t.mask.Without(schemaIdx),
		data:        t.data.SliceAxis(axis, index),
		op:          t.op,
		lo:          lo,
		hi:          hi,
		rebinned:    t.rebinned,
	}, nil
}

// Rollup aggregates one dimension away and returns the coarser table — the
// OLAP roll-up (drill-up) operation. Note that rolling up Count tables sums
// the partial counts, as expected.
func (t *Table) Rollup(name string) (*Table, error) {
	axis, err := t.axisOf(name)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(t.names)-1)
	names = append(names, t.names[:axis]...)
	names = append(names, t.names[axis+1:]...)
	schemaIdx := t.mask.Dims()[axis]
	return &Table{
		names:       names,
		schemaNames: t.schemaNames,
		mask:        t.mask.Without(schemaIdx),
		data:        t.data.AggregateAlong(axis, t.op),
		op:          t.op,
		lo:          t.lo,
		hi:          t.hi,
		rebinned:    t.rebinned,
	}, nil
}
