package shard

import (
	"fmt"
	"testing"
)

// BenchmarkCoordinatorGroupBy is the scatter-gather read path end to end
// over four loopback shards on plan [2 2 1 1]: per op one SLAB request
// per shard, the binary decode, and the slab merge into the whole table.
// Allocations per op must not grow with the answer's cell count —
// scripts/alloc_budget.json holds both sizes to the same budget.
func BenchmarkCoordinatorGroupBy(b *testing.B) {
	ds := lemmaDataset(b, []int{64, 64, 32, 16}, 20000, 1)
	_, _, coord := startShards(b, ds, 4)
	for _, bc := range []struct {
		dims  []string
		cells int
	}{
		{[]string{"A", "B"}, 4096},
		{[]string{"A", "B", "C"}, 131072},
	} {
		b.Run(fmt.Sprintf("cells=%d", bc.cells), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl, err := coord.GroupBy(bc.dims...)
				if err != nil {
					b.Fatal(err)
				}
				if tbl.Size() != bc.cells {
					b.Fatalf("%d cells, want %d", tbl.Size(), bc.cells)
				}
			}
		})
	}
}
