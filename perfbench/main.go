// Command perfbench is the repository's benchmark. It stands up the real
// program in this process — the same constructors cmd/cubeshard uses —
// drives one workload from seeded inputs, checks every answer, and prints
// a report whose last line is one JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}
//
// Workloads (see README.md for the why and the sizes):
//
//	build  batch cube construction: BuildParallel on the Figure 7 input
//	       and a sequential Build on a 6-D input
//	read   uncached distributed reads over the line protocol
//	mixed  the full serving stack: cached reads over mux with admission,
//	       alongside durable DELTABATCH writes
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1 the
// run first repeats the untraced measurement, then measures again with
// spans and registry deltas and carries the per-layer metrics instead
// (build, which has no spans, measures once and then calls its layers
// directly).
// -smoke shrinks every size so the whole harness runs in seconds, and
// -corrupt alters one answer before its check, to prove the checks fire.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	corrupt  bool
	work     string // scratch directory for durable data, removed per run

	corrupted atomic.Bool
}

// corruptNow reports whether the next checked answer must be altered:
// true exactly once per run under -corrupt.
func (c *config) corruptNow() bool {
	return c.corrupt && c.corrupted.CompareAndSwap(false, true)
}

// phase returns the length of one measured phase: the whole run, or half
// of it in a traced run, which measures untraced then traced.
func (c *config) phase() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects a run's metrics, operation counts and report lines.
type result struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]metric
	notes     []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

// op counts one attempted operation, failed when err is non-nil.
func (r *result) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check counts a correctness check that is not itself an operation
// (a post-run comparison); a failure fails the run like a failed op.
func (r *result) check(err error) {
	if err != nil {
		r.op(err)
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *result) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// latency records a latency metric's median with its sample count and
// its highest percentile that has at least ten samples beyond it.
func (r *result) latency(name string, l latencies) {
	r.set(name, l.median(), "ms")
	if label, v, ok := l.tail(); ok {
		r.note("%s: n=%d p50=%.4f ms %s=%.4f ms", name, len(l), l.median(), label, v)
	} else {
		r.note("%s: n=%d p50=%.4f ms (too few samples for a tail percentile)", name, len(l), l.median())
	}
}

// exact records an exact count, failing the run unless every
// measurement of it agrees.
func (r *result) exact(name string, values ...int64) {
	for _, v := range values[1:] {
		if v != values[0] {
			r.check(fmt.Errorf("exact count %s did not repeat: %v", name, values))
			break
		}
	}
	r.set(name, float64(values[0]), "count")
}

// phaseNote records the host steal share and process CPU of a measured
// phase next to its wall time, and flags a noisy run.
func (r *result) phaseNote(label string, w *window) {
	flag := ""
	if w.stealFrac > noisyStealFrac {
		flag = " NOISY: wall-clock figures inflated by hypervisor steal"
	}
	r.note("phase %s: wall=%.3f s cpu=%.3f s host_steal=%.1f%%%s",
		label, w.wall.Seconds(), w.cpu.Seconds(), 100*w.stealFrac, flag)
}

// runtimeMetrics records the runtime layer's per-op figures of a phase.
func (r *result) runtimeMetrics(w *window, ops int64) {
	if ops > 0 {
		r.set("runtime.alloc_mb_per_op", w.allocBytes/1e6/float64(ops), "MB")
	}
	r.set("runtime.gc_cpu_frac", w.gcCPUFrac, "fraction")
	r.set("host.steal_frac", w.stealFrac, "fraction")
}

// setupRepeats is how many times a run sets the program up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 5

// timeSetups runs setup setupRepeats times, calling teardown between
// runs, records the median process CPU of one set-up as setup_s and
// leaves the last set-up live. Set-up is measured in CPU, not wall time,
// for the reason every cost metric is: hypervisor steal is not charged
// to the process, and neither is waiting on the disk. The garbage of the
// benchmark's own extra set-ups is collected before each set-up and
// before the measured phase, so neither the set-up times nor the phase's
// GC cycles and peak RSS depend on it.
func (r *result) timeSetups(setup func() error, teardown func()) error {
	var times []float64
	defer runtime.GC()
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown()
		}
		runtime.GC()
		start := cpuTime()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, (cpuTime() - start).Seconds())
	}
	r.set("setup_s", medianFloat(times), "s")
	r.note("setup_s: %d set-ups, CPU seconds %.4f", len(times), times)
	return nil
}

var workloads = map[string]func(*config, *result) error{
	"build": runBuild,
	"read":  runRead,
	"mixed": runMixed,
}

func main() {
	c := &config{}
	flag.StringVar(&c.workload, "workload", "", "workload to run: build, read or mixed")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&c.seconds, "seconds", 20, "length of the measurement in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	flag.BoolVar(&c.smoke, "smoke", false, "shrink every size for a quick harness check")
	flag.BoolVar(&c.corrupt, "corrupt", false, "alter one answer before its check (tests the checks)")
	flag.StringVar(&c.work, "work", ".bench_build", "scratch directory for durable shard data")
	flag.Parse()
	c.trace = *trace == 1
	run, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload build|read|mixed -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	r := newResult()
	err := run(c, r)
	if err != nil {
		r.op(err)
	}
	peak := peakRSSMB()
	r.set("peak_rss_mb", peak, "MB")
	out, correct := report(c, r)
	fmt.Println(out)
	if !correct {
		os.Exit(1)
	}
}

// report prints the human-readable report and returns the JSON line.
func report(c *config, r *result) (string, bool) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v smoke=%v\n",
		c.workload, c.seed, c.seconds, c.trace, c.smoke)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, f := range r.failures {
		fmt.Println("  FAILED: " + f)
	}
	correct := r.failed == 0 && r.attempted > 0
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	out := map[string]metric{}
	for _, spec := range want {
		m, ok := r.metrics[spec.name]
		if !ok && !spec.measuredOn(c.workload) {
			// The workload bypasses this layer: it did no work there.
			m, ok = metric{Value: 0, Unit: spec.unit}, true
		}
		if !ok || m.Unit != spec.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Printf("  FAILED: metric %s missing or malformed (%v %q)\n", spec.name, m.Value, m.Unit)
			correct = false
			continue
		}
		out[spec.name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		panic(err)
	}
	return string(line), correct
}

// metricSpec is one metric of BENCHMARK.json: its name, its unit, and
// the workload that exercises it ("" for all). A workload that bypasses
// a layer reports that layer's metrics as 0.
type metricSpec struct {
	name, unit, on string
}

func (m metricSpec) measuredOn(workload string) bool { return m.on == "" || m.on == workload }

// endToEnd lists the end-to-end metrics of BENCHMARK.json, in order.
var endToEnd = []metricSpec{
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
	{"cpu_ms_per_op", "ms", ""},
}

// perLayer lists the per-layer metrics of BENCHMARK.json, in order.
var perLayer = []metricSpec{
	{"parcube.build_parallel_cpu_ms", "ms", "build"},
	{"parcube.build_parallel_wall_ms", "ms", "build"},
	{"parcube.build_cpu_ms", "ms", "build"},
	{"seq.updates", "count", "build"},
	{"seq.ns_per_update", "ns", "build"},
	{"seq.wide_updates", "count", "build"},
	{"seq.wide_ns_per_update", "ns", "build"},
	{"array.root_pass_ns_per_update", "ns", "build"},
	{"array.dense_scan_ns_per_update", "ns", "build"},
	{"parallel.partition_ms", "ms", "build"},
	{"parallel.build_ms", "ms", "build"},
	{"parallel.build_cpu_ms", "ms", "build"},
	{"parallel.comm_elements", "count", "build"},
	{"parallel.messages", "count", "build"},
	{"parallel.peak_elements", "count", "build"},
	{"client.query_small_p50_ms", "ms", "read"},
	{"client.query_large_p50_ms", "ms", "read"},
	{"shard.coord_ms", "ms", "read"},
	{"shard.ask_ms", "ms", "read"},
	{"shard.merge_ms", "ms", "read"},
	{"server.shard_handler_ms", "ms", "read"},
	{"server.coord_handler_ms", "ms", "read"},
	{"server.codec_ms", "ms", "read"},
	{"shard.ingress_rows_per_cell", "rows/cell", "read"},
	{"parcube.groupby_ms", "ms", "read"},
	{"trace.unattributed_frac_small", "fraction", "read"},
	{"trace.unattributed_frac_large", "fraction", "read"},
	{"client.hot_read_p50_ms", "ms", "mixed"},
	{"client.ingest_ack_p50_ms", "ms", "mixed"},
	{"loadgen.late_ms", "ms", "mixed"},
	{"qcache.hit_ratio", "fraction", "mixed"},
	{"qcache.hit_ms", "ms", "mixed"},
	{"qcache.miss_ms", "ms", "mixed"},
	{"qcache.invalidations", "count", "mixed"},
	{"qcache.evictions", "count", "mixed"},
	{"mux.wait_ms", "ms", "mixed"},
	{"mux.overloads", "count", "mixed"},
	{"server.shard_deltabatch_ms", "ms", "mixed"},
	{"parcube.update_ms", "ms", "mixed"},
	{"wal.group_size", "records", "mixed"},
	{"recovery.checkpoints", "count", "mixed"},
	{"recovery.checkpoint_ms", "ms", "mixed"},
	{"runtime.alloc_mb_per_op", "MB", ""},
	{"runtime.gc_cpu_frac", "fraction", ""},
	{"host.steal_frac", "fraction", ""},
	{"trace.overhead_frac", "fraction", ""},
}
