package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"parcube"
	"parcube/internal/server"
)

// lemmaDataset draws facts with integer measures over the given sizes
// (dimensions named A, B, C, ...), so Sum and Max are exact in float64.
func lemmaDataset(t testing.TB, sizes []int, facts int, seed int64) *parcube.Dataset {
	t.Helper()
	dims := make([]parcube.Dim, len(sizes))
	for i, s := range sizes {
		dims[i] = parcube.Dim{Name: string(rune('A' + i)), Size: s}
	}
	schema, err := parcube.NewSchema(dims...)
	if err != nil {
		t.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	rng := rand.New(rand.NewSource(seed))
	coords := make([]int, len(sizes))
	for i := 0; i < facts; i++ {
		for j, s := range sizes {
			coords[j] = rng.Intn(s)
		}
		if err := ds.Add(float64(rng.Intn(100)+1), coords...); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// startShards boots one in-memory node per plan slot and a coordinator
// over them.
func startShards(t testing.TB, ds *parcube.Dataset, nodes int, opts ...parcube.BuildOption) (*Plan, []*Node, *Coordinator) {
	t.Helper()
	plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ns []*Node
	var addrs []string
	for i := 0; i < nodes; i++ {
		n, err := StartNode(plan, i, ds, "127.0.0.1:0", opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		ns = append(ns, n)
		addrs = append(addrs, n.Addr())
	}
	coord, err := NewCoordinator(Config{Addrs: addrs, Timeout: 5 * time.Second, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return plan, ns, coord
}

// assertSameTable checks a merged answer cell for cell, bit for bit,
// against the single-node oracle's table.
func assertSameTable(t *testing.T, what string, got server.Result, want *parcube.Table) {
	t.Helper()
	shape := want.Shape()
	if !slices.Equal(got.Shape(), shape) || got.Size() != want.Size() {
		t.Fatalf("%s: shape %v (%d cells), want %v (%d cells)", what, got.Shape(), got.Size(), shape, want.Size())
	}
	coords := make([]int, len(shape))
	for n := 0; n < want.Size(); n++ {
		if g, w := got.At(coords...), want.At(coords...); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: cell %v = %v, want %v", what, coords, g, w)
		}
		for i := len(coords) - 1; i >= 0; i-- {
			coords[i]++
			if coords[i] < shape[i] {
				break
			}
			coords[i] = 0
		}
	}
}

// lemmaQuery is a filtered statement with its filters spelled out, so
// the test can work out each block's slab from geometry alone.
type lemmaQuery struct {
	groupBy []string
	eq      map[string]int
	between map[string][2]int // inclusive, as in the query language
}

func (q lemmaQuery) String() string {
	var conds []string
	for name, v := range q.eq {
		conds = append(conds, fmt.Sprintf("%s = %d", name, v))
	}
	for name, r := range q.between {
		conds = append(conds, fmt.Sprintf("%s BETWEEN %d AND %d", name, r[0], r[1]))
	}
	sort.Strings(conds)
	stmt := ""
	if len(q.groupBy) > 0 {
		stmt = "GROUP BY " + strings.Join(q.groupBy, ", ")
	}
	if len(conds) > 0 {
		stmt += " WHERE " + strings.Join(conds, " AND ")
	}
	return strings.TrimSpace(stmt)
}

// slabCells is the number of cells block b's slab of q holds: on each
// grouped dimension the block's range clipped to the query's range, and
// nothing at all when an aggregated-away filter misses the block.
func (q lemmaQuery) slabCells(plan *Plan, b int) int {
	blk := plan.Blocks[b]
	cells := 1
	for s, name := range plan.Names {
		lo, hi := 0, plan.Sizes[s]
		if r, ok := q.between[name]; ok {
			lo, hi = r[0], r[1]+1
		}
		if v, ok := q.eq[name]; ok {
			lo, hi = v, v+1
		}
		lo, hi = max(lo, blk.Lo[s]), min(hi, blk.Hi[s])
		if lo >= hi {
			return 0
		}
		if slices.Contains(q.groupBy, name) {
			cells *= hi - lo
		}
	}
	return cells
}

// TestLemma1Ingress pins the coordinator's shard reads to the paper's
// communication bound: for every group-by G of the lattice, the shards
// send exactly |G| × ∏ parts[j] cells over the partitioned dimensions j
// that G drops — a group-by keeping every partitioned dimension is a
// disjoint union of block slabs — and every answer, plain or filtered,
// matches the single-node oracle cell for cell under Sum and Max.
func TestLemma1Ingress(t *testing.T) {
	cases := []struct {
		sizes []int
		nodes int
		parts []int
	}{
		{[]int{16, 16, 8, 4}, 4, []int{2, 2, 1, 1}},
		{[]int{16, 16, 16, 4}, 8, []int{2, 2, 2, 1}},
	}
	for _, tc := range cases {
		for _, op := range []parcube.Aggregator{parcube.Sum, parcube.Max} {
			t.Run(fmt.Sprintf("%v/%s", tc.parts, op), func(t *testing.T) {
				ds := lemmaDataset(t, tc.sizes, 1500, 7)
				oracle, _, err := parcube.Build(ds, parcube.WithAggregator(op))
				if err != nil {
					t.Fatal(err)
				}
				plan, nodes, coord := startShards(t, ds, tc.nodes, parcube.WithAggregator(op))
				if !slices.Equal(plan.Parts, tc.parts) {
					t.Fatalf("plan parts %v, want %v", plan.Parts, tc.parts)
				}
				for _, dims := range dimSubsets(plan.Names) {
					want, err := oracle.GroupBy(dims...)
					if err != nil {
						t.Fatal(err)
					}
					bound := want.Size()
					for j, name := range plan.Names {
						if !slices.Contains(dims, name) {
							bound *= plan.Parts[j]
						}
					}
					before := coord.Stats().IngressCells
					got, err := coord.GroupBy(dims...)
					if err != nil {
						t.Fatal(err)
					}
					if ingress := coord.Stats().IngressCells - before; ingress != int64(bound) {
						t.Fatalf("GROUPBY %v: shards sent %d cells, Lemma 1 bound %d", dims, ingress, bound)
					}
					assertSameTable(t, fmt.Sprintf("GROUPBY %v", dims), got, want)
				}

				queries := []lemmaQuery{
					{groupBy: []string{"A", "C"}, between: map[string][2]int{"A": {3, 12}}},
					{groupBy: []string{"B"}, eq: map[string]int{"A": 2}},
					{groupBy: []string{"C", "D"}, between: map[string][2]int{"B": {0, 5}}},
					{eq: map[string]int{"A": 9, "B": 1}},
					{groupBy: []string{"A", "B"}, between: map[string][2]int{"A": {6, 9}, "B": {8, 15}}},
					{groupBy: []string{"D"}, eq: map[string]int{"C": 3}, between: map[string][2]int{"A": {0, 7}}},
					{groupBy: []string{"B", "C"}, between: map[string][2]int{"C": {7, 7}}},
				}
				for _, q := range queries {
					stmt := q.String()
					want, err := oracle.Query(stmt)
					if err != nil {
						t.Fatalf("oracle %q: %v", stmt, err)
					}
					expect := 0
					for b := range plan.Blocks {
						expect += q.slabCells(plan, b)
					}
					before := coord.Stats().IngressCells
					got, err := coord.Query(stmt)
					if err != nil {
						t.Fatalf("%q: %v", stmt, err)
					}
					if ingress := coord.Stats().IngressCells - before; ingress != int64(expect) {
						t.Fatalf("%q: shards sent %d cells, their slabs hold %d", stmt, ingress, expect)
					}
					assertSameTable(t, stmt, got, want)
				}

				// A block outside an equality filter answers an empty slab.
				empty := 0
				for _, n := range nodes {
					cl, err := server.Dial(n.Addr())
					if err != nil {
						t.Fatal(err)
					}
					sl, err := cl.QuerySlab("GROUP BY B WHERE A = 2")
					if err != nil {
						t.Fatal(err)
					}
					if sl.Size() == 0 {
						empty++
					}
					if err := cl.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if empty != tc.nodes/2 {
					t.Fatalf("%d of %d blocks answered an empty slab, want %d", empty, tc.nodes, tc.nodes/2)
				}
				want := fmt.Sprintf("ingress_cells=%d", coord.Stats().IngressCells)
				if !slices.Contains(coord.StatsFields(), want) {
					t.Fatalf("STATS fields %v lack %s", coord.StatsFields(), want)
				}
			})
		}
	}
}
