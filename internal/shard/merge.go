package shard

import (
	"fmt"
	"slices"

	"parcube/internal/agg"
	"parcube/internal/server"
)

// mergeSlabs combines the blocks' slabs of one answer into the whole
// table, itself a slab covering every cell, so the coordinator's server
// streams it like any other result. The table starts at the operator's
// identity; a slab that overlaps no earlier one (its block keeps every
// partitioned dimension the answer keeps) is copied in run by run, and
// one that does (a partitioned dimension was aggregated away) folds in
// with the operator, in block order, so the answer stays cell-exact.
func mergeSlabs(slabs []*server.Slab, op agg.Op) (*server.Slab, error) {
	shape := slabs[0].TableShape
	size := 1
	for _, e := range shape {
		size *= e
	}
	out := &server.Slab{TableShape: shape, Lo: make([]int, len(shape)), Hi: shape, Data: make([]float64, size)}
	op.Fill(out.Data)
	for i, s := range slabs {
		if !slices.Equal(s.TableShape, shape) {
			return nil, fmt.Errorf("shard: shards answered tables of shapes %v and %v", shape, s.TableShape)
		}
		if len(s.Data) == 0 {
			continue
		}
		overlaps := false
		for _, p := range slabs[:i] {
			overlaps = overlaps || slabsOverlap(p, s)
		}
		// Walk the slab's runs along the last axis; outer holds the run's
		// coordinates on every other axis.
		rank := len(shape)
		run := 1
		if rank > 0 {
			run = s.Hi[rank-1] - s.Lo[rank-1]
		}
		outer := slices.Clone(s.Lo)
		for src := 0; src < len(s.Data); src += run {
			dst := 0
			for a, c := range outer {
				dst = dst*shape[a] + c
			}
			if overlaps {
				for j, v := range s.Data[src : src+run] {
					out.Data[dst+j] = op.Combine(out.Data[dst+j], v)
				}
			} else {
				copy(out.Data[dst:dst+run], s.Data[src:src+run])
			}
			for a := rank - 2; a >= 0; a-- {
				outer[a]++
				if outer[a] < s.Hi[a] {
					break
				}
				outer[a] = s.Lo[a]
			}
		}
	}
	return out, nil
}

// slabsOverlap reports whether two nonempty slabs of one table share a
// cell.
func slabsOverlap(a, b *server.Slab) bool {
	if len(a.Data) == 0 || len(b.Data) == 0 {
		return false
	}
	for i := range a.Lo {
		if a.Hi[i] <= b.Lo[i] || b.Hi[i] <= a.Lo[i] {
			return false
		}
	}
	return true
}
