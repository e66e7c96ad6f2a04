package parcube

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDatasetShardPartition checks the facade contract sharding relies
// on: carving a dataset into disjoint blocks and combining the block
// cubes' tables element-wise reproduces the unsharded cube exactly.
func TestDatasetShardPartition(t *testing.T) {
	schema, err := NewSchema(Dim{Name: "a", Size: 8}, Dim{Name: "b", Size: 6})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(schema)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if err := ds.Add(float64(rng.Intn(9)+1), rng.Intn(8), rng.Intn(6)); err != nil {
			t.Fatal(err)
		}
	}
	whole, _, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}

	left, err := ds.Shard([]int{0, 0}, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	right, err := ds.Shard([]int{4, 0}, []int{8, 6})
	if err != nil {
		t.Fatal(err)
	}
	if left.Cells()+right.Cells() != ds.Cells() {
		t.Fatalf("blocks do not partition the facts: %d + %d != %d",
			left.Cells(), right.Cells(), ds.Cells())
	}

	lc, _, err := Build(left)
	if err != nil {
		t.Fatal(err)
	}
	rc, _, err := Build(right)
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][]string{nil, {"a"}, {"b"}, {"a", "b"}} {
		want, err := whole.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := lc.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := rc.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		shape := want.Shape()
		coords := make([]int, len(shape))
		for off := 0; off < want.Size(); off++ {
			rem := off
			for i := len(shape) - 1; i >= 0; i-- {
				coords[i] = rem % shape[i]
				rem /= shape[i]
			}
			if got := lt.At(coords...) + rt.At(coords...); got != want.At(coords...) {
				t.Fatalf("group-by %v cell %v: %v + %v != %v",
					dims, coords, lt.At(coords...), rt.At(coords...), want.At(coords...))
			}
		}
	}
}

func TestDatasetShardValidation(t *testing.T) {
	schema, err := NewSchema(Dim{Name: "a", Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(schema)
	if err := ds.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Shard([]int{0, 0}, []int{4, 4}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := ds.Shard([]int{2}, []int{2}); err == nil {
		t.Fatal("empty block accepted")
	}
	if _, err := ds.Shard([]int{0}, []int{5}); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestCubeAggregator(t *testing.T) {
	schema, err := NewSchema(Dim{Name: "a", Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Aggregator{Sum, Count, Max, Min} {
		ds := NewDataset(schema)
		if err := ds.Add(3, 1); err != nil {
			t.Fatal(err)
		}
		cube, _, err := Build(ds, WithAggregator(a))
		if err != nil {
			t.Fatal(err)
		}
		if cube.Aggregator() != a {
			t.Fatalf("Aggregator() = %v, want %v", cube.Aggregator(), a)
		}
	}
}

// TestBuildEmptyShard makes sure a block with no facts still builds a
// servable cube — shard nodes for sparse corners of the array hit this.
func TestBuildEmptyShard(t *testing.T) {
	schema, err := NewSchema(Dim{Name: "a", Size: 4}, Dim{Name: "b", Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(schema)
	if err := ds.Add(5, 0, 0); err != nil {
		t.Fatal(err)
	}
	empty, err := ds.Shard([]int{2, 0}, []int{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	cube, _, err := Build(empty)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Total() != 0 {
		t.Fatalf("empty shard total = %v", cube.Total())
	}
	tbl, err := cube.GroupBy("a")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.At(0) != 0 || tbl.At(3) != 0 {
		t.Fatalf("empty shard group-by = %v %v", tbl.At(0), tbl.At(3))
	}
}

// TestTableSlab checks the slab contract against a block sub-cube: every
// cell outside the slab aggregates no fact (0 under Sum), the slab's cells are
// the table's, and the box follows Query's re-basing — BETWEEN ranges
// clip and shift it, equality filters outside the block empty it.
func TestTableSlab(t *testing.T) {
	schema, err := NewSchema(Dim{Name: "a", Size: 8}, Dim{Name: "b", Size: 6}, Dim{Name: "c", Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(schema)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		if err := ds.Add(float64(rng.Intn(9)+1), rng.Intn(8), rng.Intn(6), rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := []int{4, 0, 2}, []int{8, 6, 4}
	sub, err := ds.Shard(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	cube, _, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		stmt           string
		wantLo, wantHi []int
	}{
		{"GROUP BY a, c", []int{4, 2}, []int{8, 4}},
		{"GROUP BY b", []int{0}, []int{6}},
		{"GROUP BY a WHERE a BETWEEN 2 AND 5", []int{2}, []int{4}},
		{"GROUP BY a, b WHERE b BETWEEN 1 AND 3 AND c = 3", []int{4, 0}, []int{8, 3}},
		{"GROUP BY b WHERE c = 1", []int{0}, []int{0}},
		{"GROUP BY a WHERE c BETWEEN 0 AND 1", []int{0}, []int{0}},
		{"WHERE a = 6", nil, nil},
		{"WHERE a = 1", nil, nil},
	}
	for _, tc := range cases {
		tbl, err := cube.Query(tc.stmt)
		if err != nil {
			t.Fatal(err)
		}
		slo, shi, data, err := tbl.Slab(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if tc.wantLo != nil && (fmt.Sprint(slo) != fmt.Sprint(tc.wantLo) || fmt.Sprint(shi) != fmt.Sprint(tc.wantHi)) {
			t.Fatalf("%q: slab [%v, %v), want [%v, %v)", tc.stmt, slo, shi, tc.wantLo, tc.wantHi)
		}
		shape := tbl.Shape()
		coords := make([]int, len(shape))
		next := 0
		for n := 0; n < tbl.Size(); n++ {
			inside := len(data) > 0
			for i, c := range coords {
				inside = inside && c >= slo[i] && c < shi[i]
			}
			switch v := tbl.At(coords...); {
			case inside && v != data[next]:
				t.Fatalf("%q: slab cell %v = %v, table %v", tc.stmt, coords, data[next], v)
			case !inside && v != 0:
				t.Fatalf("%q: cell %v = %v outside the slab [%v, %v)", tc.stmt, coords, v, slo, shi)
			}
			if inside {
				next++
			}
			for i := len(coords) - 1; i >= 0; i-- {
				if coords[i]++; coords[i] < shape[i] {
					break
				}
				coords[i] = 0
			}
		}
		if next != len(data) {
			t.Fatalf("%q: slab holds %d cells, %d inside its box", tc.stmt, len(data), next)
		}
	}
	tbl, err := cube.GroupBy("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tbl.Slab(lo[:2], hi); err == nil {
		t.Fatal("slab bounds of the wrong rank accepted")
	}
	// A hierarchy roll-up re-bins the axis: the slab is the whole table.
	coarse, err := tbl.RollupWith("a", Hierarchy{Name: "half", Size: 2, Mapping: []int{0, 0, 0, 0, 1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if slo, shi, data, _ := coarse.Slab(lo, hi); fmt.Sprint(slo, shi) != "[0] [2]" || len(data) != 2 {
		t.Fatalf("re-binned slab [%v, %v) with %d cells", slo, shi, len(data))
	}
}
