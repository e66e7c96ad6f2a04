package main

import (
	"fmt"
	"math/rand"
	"time"

	"parcube"
	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/cluster"
	"parcube/internal/nd"
	"parcube/internal/parallel"
	"parcube/internal/seq"
)

// buildSizes are the build workload's inputs: the paper's Figure 7
// array for BuildParallel, whose cost is dominated by partitioning and
// the sparse root pass, and a 6-D array for Build, whose cost is
// dominated by dense scans. Together they split the array kernels.
type buildSizes struct {
	fig7      []int
	fig7Facts int
	procs     int
	partition []int // Theorem 8 partition of fig7 over procs
	wide      []int
	wideFacts int
}

func buildSizesFor(smoke bool) buildSizes {
	if smoke {
		return buildSizes{
			fig7: []int{16, 16, 16, 16}, fig7Facts: 6226, procs: 8, partition: []int{1, 1, 1, 0},
			wide: []int{6, 6, 6, 6, 6, 6}, wideFacts: 467,
		}
	}
	return buildSizes{
		// 64^4 at 9.5% density and 16^6 at 1% density.
		fig7: []int{64, 64, 64, 64}, fig7Facts: 1593835, procs: 8, partition: []int{1, 1, 1, 0},
		wide: []int{16, 16, 16, 16, 16, 16}, wideFacts: 167772,
	}
}

// runBuild measures batch cube construction. Each iteration runs one
// BuildParallel on the Figure 7 input and one Build on the 6-D input,
// with the process CPU and wall time of each call taken on its own.
func runBuild(c *config, r *result) error {
	sz := buildSizesFor(c.smoke)
	seeds := rand.New(rand.NewSource(c.seed))
	fig7 := genFacts(seeds.Int63(), sz.fig7, sz.fig7Facts)
	wide := genFacts(seeds.Int63(), sz.wide, sz.wideFacts)

	// Set-up is loading the facts into the program's input type.
	var ds7, dsw *parcube.Dataset
	err := r.timeSetups(func() error {
		ds7, dsw = fig7.dataset(), wide.dataset()
		ds7.Cells() // freezes: the sparse input is built here, once
		dsw.Cells()
		return nil
	}, func() {})
	if err != nil {
		return err
	}

	// The oracle: a sequential build of the same input, made outside
	// every measured window.
	ref, _, err := parcube.Build(ds7)
	if err != nil {
		return fmt.Errorf("reference build: %w", err)
	}
	predicted, err := parcube.PredictVolume(sz.fig7, sz.partition)
	if err != nil {
		return err
	}
	wideTotal := wide.total()
	spec := parcube.ClusterSpec{Processors: sz.procs, Partition: sz.partition}

	var counts buildCounts
	var parCPU, parWall, wideCPU latencies
	w := openWindow()
	for deadline := time.Now().Add(c.phase()); len(parCPU) == 0 || time.Now().Before(deadline); {
		c0, t0 := cpuTime(), time.Now()
		cube, rep, err := parcube.BuildParallel(ds7, spec)
		parWall = append(parWall, time.Since(t0))
		parCPU = append(parCPU, cpuTime()-c0)
		if err == nil {
			counts.addParallel(rep)
			err = checkBuild(c, cube, ref, rep, predicted)
		}
		r.op(err)

		c0 = cpuTime()
		wcube, stats, err := parcube.Build(dsw)
		wideCPU = append(wideCPU, cpuTime()-c0)
		if err == nil {
			counts.wideUpdates = append(counts.wideUpdates, stats.Updates)
			if got := wcube.Total(); got != wideTotal {
				err = fmt.Errorf("6-D build total %v, want %v", got, wideTotal)
			}
		}
		r.op(err)
	}
	w.close()
	r.phaseNote("untraced", w)
	// The median iteration, so that a slow spell of the host during a
	// few iterations does not move the figure.
	it := iterationCPU(parCPU, wideCPU)
	r.set("cpu_ms_per_op", it.median(), "ms")
	r.set("parcube.build_parallel_cpu_ms", parCPU.median(), "ms")
	r.set("parcube.build_cpu_ms", wideCPU.median(), "ms")
	r.latency("parcube.build_parallel_wall_ms", parWall)
	r.note("build: %d iterations of one BuildParallel and one 6-D Build; CPU per iteration median %.1f ms, mean %.1f ms", len(it), it.median(), it.mean())
	if c.trace {
		// The build layers have no spans to switch on: the traced run
		// adds only the direct layer calls, after the measured loop.
		r.set("trace.overhead_frac", 0, "fraction")
		r.note("trace.overhead_frac: 0 by construction (build has no spans; the traced run adds direct layer calls only)")
		r.runtimeMetrics(w, int64(len(parCPU)))
		if err := buildLayers(c, r, sz, spec, fig7, wide, &counts); err != nil {
			return err
		}
	}
	r.exact("parallel.comm_elements", counts.comm...)
	r.exact("parallel.messages", counts.msgs...)
	r.exact("parallel.peak_elements", counts.peaks...)
	r.exact("seq.wide_updates", counts.wideUpdates...)
	return nil
}

// buildCounts collects the exact counts of every build, to check that
// each repeats.
type buildCounts struct {
	comm, msgs, peaks, wideUpdates []int64
}

func (b *buildCounts) addParallel(rep *parcube.ParallelReport) {
	b.comm = append(b.comm, rep.CommElements)
	b.msgs = append(b.msgs, rep.Messages)
	b.peaks = append(b.peaks, rep.MaxPeakMemoryElements)
}

// iterationCPU returns the process CPU of each iteration: one
// BuildParallel and one 6-D Build.
func iterationCPU(par, wide latencies) latencies {
	it := make(latencies, len(par))
	for i := range par {
		it[i] = par[i] + wide[i]
	}
	return it
}

// checkBuild compares a BuildParallel cube with the sequential oracle
// cell for cell, and its measured communication volume with the
// Theorem 3 closed form.
func checkBuild(c *config, cube, ref *parcube.Cube, rep *parcube.ParallelReport, predicted int64) error {
	comm := rep.CommElements
	if c.corruptNow() {
		comm++
	}
	if comm != predicted || rep.PredictedCommElements != predicted {
		return fmt.Errorf("comm elements %d (report predicts %d), Theorem 3 gives %d", comm, rep.PredictedCommElements, predicted)
	}
	return cubesEqual(cube, ref)
}

// cubesEqual compares every group-by of two cubes cell for cell.
func cubesEqual(got, want *parcube.Cube) error {
	names := want.Schema().Names()
	n := len(names)
	for mask := 0; mask < 1<<n-1; mask++ {
		var dims []string
		for i, name := range names {
			if mask&(1<<i) != 0 {
				dims = append(dims, name)
			}
		}
		g, err := got.GroupBy(dims...)
		if err != nil {
			return err
		}
		w, err := want.GroupBy(dims...)
		if err != nil {
			return err
		}
		if err := tablesEqual(g.Shape(), g.At, w.At); err != nil {
			return fmt.Errorf("group-by %v: %w", dims, err)
		}
	}
	if got.Total() != want.Total() {
		return fmt.Errorf("total %v, want %v", got.Total(), want.Total())
	}
	return nil
}

// tablesEqual walks every cell of shape and compares two lookups.
func tablesEqual(shape []int, got, want func(...int) float64) error {
	coords := make([]int, len(shape))
	for {
		if g, w := got(coords...), want(coords...); g != w {
			return fmt.Errorf("cell %v = %v, want %v", coords, g, w)
		}
		i := len(shape) - 1
		for ; i >= 0; i-- {
			if coords[i]++; coords[i] < shape[i] {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// directRepeats is how many times each direct layer call runs; the
// per-layer figure is the median.
const directRepeats = 3

// cpuOf runs f directRepeats times and returns the median process CPU
// and wall time of one call.
func cpuOf(f func()) (cpu, wall time.Duration) {
	var cs, ws latencies
	for i := 0; i < directRepeats; i++ {
		c0, t0 := cpuTime(), time.Now()
		f()
		ws = append(ws, time.Since(t0))
		cs = append(cs, cpuTime()-c0)
	}
	return cs.sorted()[len(cs)/2], ws.sorted()[len(ws)/2]
}

// buildLayers measures the build layers by calling them directly:
// seq.Build on both inputs, the array kernels that dominate each, and
// the parallel engine's partition and build steps. The exact counts are
// also taken on a second pair of inputs of the same sizes, drawn from
// another seed: seq.Build's updates on both, BuildParallel's volume,
// messages and peak memory appended to counts, parallel.Build's volume.
func buildLayers(c *config, r *result, sz buildSizes, spec parcube.ClusterSpec, fig7, wide *facts, counts *buildCounts) error {
	sp7, spw := fig7.sparse(), wide.sparse()
	other := rand.New(rand.NewSource(c.seed ^ 0x5eed))
	fig7b := genFacts(other.Int63(), sz.fig7, sz.fig7Facts)
	wideb := genFacts(other.Int63(), sz.wide, sz.wideFacts)
	sp7b := fig7b.sparse()

	var res *seq.Result
	var err error
	cpu, _ := cpuOf(func() {
		res, err = seq.Build(sp7, seq.Options{})
	})
	if err != nil {
		return err
	}
	resb, err := seq.Build(sp7b, seq.Options{})
	if err != nil {
		return err
	}
	r.exact("seq.updates", res.Stats.Updates, resb.Stats.Updates)
	r.set("seq.ns_per_update", float64(cpu.Nanoseconds())/float64(res.Stats.Updates), "ns")
	cpu, _ = cpuOf(func() {
		res, err = seq.Build(spw, seq.Options{})
	})
	if err != nil {
		return err
	}
	r.set("seq.wide_ns_per_update", float64(cpu.Nanoseconds())/float64(res.Stats.Updates), "ns")
	if resb, err = seq.Build(wideb.sparse(), seq.Options{}); err != nil {
		return err
	}
	counts.wideUpdates = append(counts.wideUpdates, res.Stats.Updates, resb.Stats.Updates)
	_, rep, err := parcube.BuildParallel(fig7b.dataset(), spec)
	if err != nil {
		return err
	}
	counts.addParallel(rep)

	// The sparse root pass of the Figure 7 input: every fact folded into
	// the root's four children.
	var updates int64
	cpu, _ = cpuOf(func() {
		updates = array.ScanSparse(sp7, childTargets(sz.fig7), agg.Sum, agg.FoldInput)
	})
	r.set("array.root_pass_ns_per_update", float64(cpu.Nanoseconds())/float64(updates), "ns")
	// A dense scan of the 6-D input's first-level shape into its
	// children — the step that dominates the 6-D build.
	parent := array.NewDense(nd.Shape(sz.wide[1:]), agg.Sum)
	for i, d := 0, parent.Data(); i < len(d); i++ {
		d[i] = float64(other.Intn(100))
	}
	cpu, _ = cpuOf(func() {
		updates = array.Scan(parent, childTargets(sz.wide[1:]), agg.Sum, agg.FoldInput)
	})
	r.set("array.dense_scan_ns_per_update", float64(cpu.Nanoseconds())/float64(updates), "ns")

	grid, err := cluster.NewGrid(partsOf(sz.partition))
	if err != nil {
		return err
	}
	cpu, _ = cpuOf(func() {
		_, _, err = parallel.PartitionInput(sp7, grid)
	})
	if err != nil {
		return err
	}
	r.set("parallel.partition_ms", ms(cpu), "ms")
	var pres *parallel.Result
	opts := parallel.Options{K: sz.partition, Compute: cluster.UltraII()}
	cpu, wall := cpuOf(func() {
		pres, err = parallel.Build(sp7, opts)
	})
	if err != nil {
		return err
	}
	r.set("parallel.build_ms", ms(wall), "ms")
	r.set("parallel.build_cpu_ms", ms(cpu), "ms")
	presb, err := parallel.Build(sp7b, opts)
	if err != nil {
		return err
	}
	r.exact("parallel.direct_comm_elements", pres.Stats.MeasuredVolumeElements, presb.Stats.MeasuredVolumeElements, pres.Stats.TheoreticalVolumeElements)
	return nil
}

// childTargets allocates the children of a parent of shape: one per
// dropped axis.
func childTargets(shape []int) []array.Target {
	ts := make([]array.Target, len(shape))
	for d := range shape {
		child := append(append([]int(nil), shape[:d]...), shape[d+1:]...)
		ts[d] = array.Target{Child: array.NewDense(nd.Shape(child), agg.Sum), DropAxis: d}
	}
	return ts
}

// partsOf turns log2 slice counts into slice counts.
func partsOf(k []int) []int {
	p := make([]int, len(k))
	for i, v := range k {
		p[i] = 1 << uint(v)
	}
	return p
}
