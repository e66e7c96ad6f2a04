package main

import (
	"fmt"

	"parcube"
	"parcube/internal/array"
	"parcube/internal/nd"
	"parcube/internal/workload"
)

// facts is a generated fact table: exactly n distinct, uniformly placed
// cells, each with an integer measure in [1, 100], drawn by the
// generator the repository's experiments use. Integer measures keep
// every sum exact in float64, so answers can be compared cell for cell
// whatever order the program adds them in; a fixed cell count keeps the
// paper's exact counts (updates, elements moved) equal across seeds.
type facts struct {
	shape []int
	cells *array.Sparse
}

// genFacts draws exactly n distinct cells of shape from seed.
func genFacts(seed int64, shape []int, n int) *facts {
	sh := nd.MustShape(shape...)
	cells, err := workload.Generate(workload.Spec{
		Shape:           sh,
		SparsityPercent: float64(n) * 100 / float64(sh.Size()),
		Seed:            seed,
		MaxValue:        100,
	})
	if err != nil {
		panic(err)
	}
	if cells.NNZ() != n {
		panic(fmt.Sprintf("genFacts: %d facts generated, want %d", cells.NNZ(), n))
	}
	return &facts{shape: shape, cells: cells}
}

func (f *facts) total() float64 {
	var s float64
	f.cells.Iter(func(_ []int, v float64) { s += v })
	return s
}

// schema names the dimensions A, B, C, ... like cubeshard does.
func schemaOf(shape []int) *parcube.Schema {
	dims := make([]parcube.Dim, len(shape))
	for i, s := range shape {
		dims[i] = parcube.Dim{Name: string(rune('A' + i)), Size: s}
	}
	sch, err := parcube.NewSchema(dims...)
	if err != nil {
		panic(err)
	}
	return sch
}

// dataset loads the facts into the program's input type.
func (f *facts) dataset() *parcube.Dataset {
	ds := parcube.NewDataset(schemaOf(f.shape))
	f.cells.Iter(func(coords []int, v float64) {
		if err := ds.Add(v, coords...); err != nil {
			panic(err)
		}
	})
	return ds
}

// sparse is the facts in the array layer's input type, for direct calls
// into the build kernels.
func (f *facts) sparse() *array.Sparse { return f.cells }
