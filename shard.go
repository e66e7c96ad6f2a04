package parcube

import (
	"fmt"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

// This file is the shardable facade: the exports internal/shard (and any
// external sharding layer) needs to split a dataset into block sub-cubes
// and to merge their query results cell-exactly.

// Aggregator returns the operator the cube was built with. A sharded
// serving tier needs it to combine partial aggregates from block
// sub-cubes: every Aggregator here is associative and commutative, so
// element-wise combination of per-shard tables reproduces the unsharded
// cube exactly.
func (c *Cube) Aggregator() Aggregator {
	switch c.op {
	case agg.Count:
		return Count
	case agg.Max:
		return Max
	case agg.Min:
		return Min
	default:
		return Sum
	}
}

// Shard returns a new dataset over the same schema containing exactly the
// facts whose coordinates lie in the half-open box [lo, hi) per dimension,
// at their original global coordinates. Sharding the fact table this way
// and building one cube per block is lossless: because facts partition
// disjointly across blocks and all aggregators are associative and
// commutative, combining the blocks' group-by tables element-wise equals
// the unsharded cube.
//
// Shard freezes the dataset (like Build), so it can be called repeatedly
// to carve every block of a plan out of one loaded fact table.
func (d *Dataset) Shard(lo, hi []int) (*Dataset, error) {
	n := d.schema.Dims()
	if len(lo) != n || len(hi) != n {
		return nil, fmt.Errorf("parcube: shard bounds rank %d/%d for %d dimensions", len(lo), len(hi), n)
	}
	for i := 0; i < n; i++ {
		if lo[i] < 0 || hi[i] > d.schema.shape[i] || lo[i] >= hi[i] {
			return nil, fmt.Errorf("parcube: shard bounds [%d:%d) invalid for dimension %q of size %d",
				lo[i], hi[i], d.schema.names[i], d.schema.shape[i])
		}
	}
	block := nd.NewBlock(lo, hi)
	sub := NewDataset(d.schema)
	var addErr error
	d.freeze().Iter(func(coords []int, v float64) {
		if addErr != nil || !block.Contains(coords) {
			return
		}
		addErr = sub.Add(v, coords...)
	})
	if addErr != nil {
		return nil, addErr
	}
	return sub, nil
}

// Slab cuts out the part of the table that a block sub-cube contributes
// to a merged answer (the paper's Lemma 1). The block is the schema box
// [lo, hi): one bound per schema dimension, at global coordinates. Slab
// returns the box [slo, shi) of table coordinates whose cells can
// aggregate facts inside the block, and those cells densely in row-major
// order; no other cell of a cube built from the block's facts alone
// aggregates any of them. The box follows the table's own
// re-basing (Dice ranges, Slice positions), so it fits Query results
// too. When the block misses a range the table was sliced or diced to,
// the slab is empty: data is nil and slo == shi. A table re-binned by a
// hierarchy roll-up answers its whole extent.
func (t *Table) Slab(lo, hi []int) (slo, shi []int, data []float64, err error) {
	n := len(t.schemaNames)
	if len(lo) != n || len(hi) != n {
		return nil, nil, nil, fmt.Errorf("parcube: slab bounds rank %d/%d for %d dimensions", len(lo), len(hi), n)
	}
	shape := t.data.Shape()
	rank := shape.Rank()
	slo, shi = make([]int, rank), make([]int, rank)
	copy(shi, shape)
	if !t.rebinned {
		tlo, thi := t.bounds()
		dims := t.mask.Dims()
		axis := 0
		for s := range tlo {
			l, h := max(tlo[s], lo[s]), min(thi[s], hi[s])
			if axis < rank && dims[axis] == s {
				h = min(h, tlo[s]+shape[axis])
				slo[axis], shi[axis] = l-tlo[s], h-tlo[s]
				axis++
			}
			if l >= h {
				clear(slo)
				clear(shi)
				return slo, shi, nil, nil
			}
		}
	}
	return slo, shi, t.data.Crop(slo, shi).Data(), nil
}
