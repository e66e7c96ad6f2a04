package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parcube/internal/obs"
)

// cpuTime returns the process's user+system CPU time. Hypervisor steal
// is not charged to the process, so CPU per operation stays put on a
// host whose wall-clock latencies swing with its neighbours' load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPU returns the user+system CPU time of the calling OS thread.
// The caller holds its goroutine on the thread (runtime.LockOSThread)
// between the two readings it differences.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostTicks reads the aggregate CPU line of /proc/stat: the total ticks
// and the ticks stolen by the hypervisor. ok is false where the file is
// missing or has no steal column.
func hostTicks() (total, steal int64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9, 10) are already inside user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// runtimeSample reads the Go runtime counters the per-layer report
// differences: bytes allocated, and CPU spent in the GC and overall.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// window brackets a measured phase. openWindow reads wall time, process
// CPU, host ticks and runtime counters; close fills in their differences.
type window struct {
	start     time.Time
	startCPU  time.Duration
	hostTotal int64
	hostSteal int64
	hostOK    bool
	rt        runtimeSample

	wall       time.Duration
	cpu        time.Duration
	stealFrac  float64
	allocBytes float64
	gcCPUFrac  float64
}

func openWindow() *window {
	w := &window{start: time.Now(), startCPU: cpuTime(), rt: readRuntime()}
	w.hostTotal, w.hostSteal, w.hostOK = hostTicks()
	return w
}

func (w *window) close() {
	w.wall = time.Since(w.start)
	w.cpu = cpuTime() - w.startCPU
	rt := readRuntime()
	w.allocBytes = rt.allocBytes - w.rt.allocBytes
	if d := rt.totalCPU - w.rt.totalCPU; d > 0 {
		w.gcCPUFrac = (rt.gcCPU - w.rt.gcCPU) / d
	}
	if total, steal, ok := hostTicks(); ok && w.hostOK && total > w.hostTotal {
		w.stealFrac = float64(steal-w.hostSteal) / float64(total-w.hostTotal)
	}
}

// noisyStealFrac is the host steal share above which a run is flagged:
// its wall-clock figures are then not comparable with a quiet run's,
// though its CPU-cost figures still are.
const noisyStealFrac = 0.05

// latencies summarizes a sample of durations the way the report needs
// them: the median, and the highest percentile that still has at least
// ten samples beyond it.
type latencies []time.Duration

func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the median in milliseconds (NaN when empty).
func (l latencies) median() float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	s := l.sorted()
	n := len(s)
	if n%2 == 1 {
		return ms(s[n/2])
	}
	return (ms(s[n/2-1]) + ms(s[n/2])) / 2
}

// mean returns the mean in milliseconds (NaN when empty).
func (l latencies) mean() float64 {
	var sum time.Duration
	for _, d := range l {
		sum += d
	}
	return ms(sum) / float64(len(l))
}

// tail returns the highest of p90, p99, p99.9 that leaves at least ten
// samples above it, with its value in milliseconds; ok is false when even
// p90 has fewer than ten samples beyond it.
func (l latencies) tail() (label string, value float64, ok bool) {
	s := l.sorted()
	n := len(s)
	for _, q := range []struct {
		label string
		frac  float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		idx := int(math.Ceil(q.frac*float64(n))) - 1
		if idx >= 0 && n-1-idx >= 10 {
			return q.label, ms(s[idx]), true
		}
	}
	return "", 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianFloat returns the median of xs (NaN when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// regVals holds registry readings, or their change over a phase:
// counter/gauge values and histogram Count/Sum. Histogram percentiles
// are power-of-two bucket bounds and are deliberately not read.
type regVals struct {
	vals  map[string]int64
	count map[string]int64
	sum   map[string]int64
}

func newRegVals() *regVals {
	return &regVals{vals: map[string]int64{}, count: map[string]int64{}, sum: map[string]int64{}}
}

func snapRegistry(r *obs.Registry) *regVals {
	s := newRegVals()
	for _, m := range r.Snapshot() {
		if m.Kind == obs.KindHistogram {
			s.count[m.Name] = m.Hist.Count
			s.sum[m.Name] = m.Hist.Sum
		} else {
			s.vals[m.Name] = m.Value
		}
	}
	return s
}

// add accumulates after−before into d (several shard nodes fold into
// one delta).
func (d *regVals) add(before, after *regVals) {
	for k, v := range after.vals {
		d.vals[k] += v - before.vals[k]
	}
	for k, v := range after.count {
		d.count[k] += v - before.count[k]
	}
	for k, v := range after.sum {
		d.sum[k] += v - before.sum[k]
	}
}

// meanMS returns Sum/Count of the named nanosecond histograms, in ms,
// or 0 when none was observed.
func (d *regVals) meanMS(names ...string) float64 {
	var c, s int64
	for _, n := range names {
		c += d.count[n]
		s += d.sum[n]
	}
	if c == 0 {
		return 0
	}
	return float64(s) / float64(c) / 1e6
}

// mean returns Sum/Count of the named histogram, or 0 when empty.
func (d *regVals) mean(name string) float64 {
	if d.count[name] == 0 {
		return 0
	}
	return float64(d.sum[name]) / float64(d.count[name])
}

// watch snapshots a set of registries at the start of a phase.
type watch struct {
	regs   []*obs.Registry
	before []*regVals
}

func watchRegistries(regs ...*obs.Registry) *watch {
	w := &watch{regs: regs}
	for _, r := range regs {
		w.before = append(w.before, snapRegistry(r))
	}
	return w
}

// delta returns the summed change of every watched registry.
func (w *watch) delta() *regVals {
	d := newRegVals()
	for i, r := range w.regs {
		d.add(w.before[i], snapRegistry(r))
	}
	return d
}
