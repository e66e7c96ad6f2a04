package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parcube"
	"parcube/internal/mux"
	"parcube/internal/server"
)

// mixedSizes is the mixed workload: the read workload's cube on durable
// shards (fsync always, group commit), behind the result cache, served
// over mux with admission; cached reads and DELTABATCH writes arrive on
// fixed open-loop schedules.
type mixedSizes struct {
	shape      []int
	facts      int
	nodes      int
	readRate   float64 // reads per second, on one mux session
	writeRate  float64 // DELTABATCH requests per second, on one plain connection
	batch      int     // single-row records per DELTABATCH
	cacheCells int64
}

func mixedSizesFor(smoke bool) mixedSizes {
	if smoke {
		return mixedSizes{shape: []int{16, 16, 8, 8}, facts: 2000, nodes: 4, readRate: 200, writeRate: 32, batch: 2, cacheCells: 4096}
	}
	return mixedSizes{shape: []int{64, 64, 32, 16}, facts: 200000, nodes: 4, readRate: 200, writeRate: 4, batch: 2, cacheCells: 4096}
}

// hotSet is the read mix, most popular first; reads are Zipf-weighted
// (weight 1/rank) over it. Together the six group-bys hold 1,712 cells,
// inside the cache budget, so only invalidation by writes sends reads
// to the shards.
var hotSet = [][]string{{"A"}, {"B"}, {"C", "D"}, {"D"}, {"A", "D"}, {"C"}}

// mixedSchedule is one phase's fixed offered traffic: the hot-set index
// of each read, in send order. The count of each group-by is fixed by
// its Zipf weight; the seed only orders them.
func mixedSchedule(rng *rand.Rand, reads int) []int {
	var wsum float64
	for k := range hotSet {
		wsum += 1 / float64(k+1)
	}
	var sched []int
	for k := range hotSet {
		n := int(float64(reads)/float64(k+1)/wsum + 0.5)
		for i := 0; i < n; i++ {
			sched = append(sched, k)
		}
	}
	rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	return sched
}

// mixedPhase is what one open-loop phase measured.
type mixedPhase struct {
	reads, acks, late latencies
	ops               int64
	acked             [][]server.Row // rows of every acknowledged record
	win               *window
}

// mixedRun holds one run's inputs and the live stack.
type mixedRun struct {
	c      *config
	r      *result
	sz     mixedSizes
	rng    *rand.Rand
	ds     *parcube.Dataset
	st     *stack
	dir    string
	before map[string]*parcube.Table // hot-set answers before any write
}

func (m *mixedRun) ckptEvery() int {
	// Each node receives writeRate/nodes batches of batch records per
	// second; three checkpoints per node fit in every measured phase,
	// traced or not.
	perNode := m.sz.writeRate * float64(m.sz.batch) / float64(m.sz.nodes) * m.c.phase().Seconds()
	if n := int(perNode / 3); n > 1 {
		return n
	}
	return 1
}

func (m *mixedRun) start(tr *tracer, ds *parcube.Dataset) error {
	m.dir = filepath.Join(m.c.work, fmt.Sprintf("mixed-%d", os.Getpid()))
	if err := os.RemoveAll(m.dir); err != nil {
		return err
	}
	var err error
	m.st, err = startStack(ds, stackOptions{
		nodes:      m.sz.nodes,
		durableDir: m.dir,
		ckptEvery:  m.ckptEvery(),
		cacheCells: m.sz.cacheCells,
		admission:  &mux.AdmissionConfig{MaxInFlight: 2}, // one request per core
		tr:         tr,
	})
	return err
}

func (m *mixedRun) stop() {
	if m.st != nil {
		m.r.check(m.st.close())
		m.st = nil
	}
	m.r.check(os.RemoveAll(m.dir))
}

// runMixed measures the full serving stack under a fixed offered load.
func runMixed(c *config, r *result) error {
	sz := mixedSizesFor(c.smoke)
	m := &mixedRun{c: c, r: r, sz: sz, rng: rand.New(rand.NewSource(c.seed))}
	f := genFacts(m.rng.Int63(), sz.shape, sz.facts)
	defer m.stop()
	err := r.timeSetups(func() error {
		m.ds = f.dataset()
		return m.start(nil, m.ds)
	}, m.stop)
	if err != nil {
		return err
	}
	oracle, _, err := parcube.Build(m.ds)
	if err != nil {
		return err
	}
	m.before = map[string]*parcube.Table{}
	for _, dims := range hotSet {
		if m.before[groupByKey(dims)], err = oracle.GroupBy(dims...); err != nil {
			return err
		}
	}

	p, err := m.phase()
	if err != nil {
		return err
	}
	r.phaseNote("untraced", p.win)
	r.set("cpu_ms_per_op", ms(p.win.cpu)/float64(p.ops), "ms")
	r.note("mixed: %d reads and %d DELTABATCH writes offered; process CPU %.3f s", p.ops-int64(len(p.acks)), len(p.acks), p.win.cpu.Seconds())
	r.latency("client.hot_read_p50_ms", p.reads)
	r.latency("client.ingest_ack_p50_ms", p.acks)
	r.latency("loadgen.late_ms", p.late)
	if err := m.verifyFinal(f, p.acked); err != nil {
		r.check(err)
	}
	if !c.trace {
		return nil
	}

	m.stop()
	tr := &tracer{}
	if err := m.start(tr, f.dataset()); err != nil {
		return err
	}
	regs := m.st.watch()
	tp, err := m.phase()
	if err != nil {
		return err
	}
	r.phaseNote("traced", tp.win)
	r.set("trace.overhead_frac", float64(tp.win.cpu)/float64(p.win.cpu)-1, "fraction")
	r.runtimeMetrics(tp.win, tp.ops)
	if err := m.verifyFinal(f, tp.acked); err != nil {
		r.check(err)
	}
	mixedLayers(r, tr, regs)
	return m.updateLayer(f)
}

// phase offers one phase of traffic: reads at readRate on one mux
// session, DELTABATCH writes at writeRate on one plain connection, each
// timed from its intended send time.
func (m *mixedRun) phase() (*mixedPhase, error) {
	d := m.c.phase()
	mc, err := server.DialMux(m.st.addr, mux.Options{RequestTimeout: shardTimeout})
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	wc, err := server.DialTimeout(m.st.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	wc.SetTimeout(shardTimeout)
	// Fill the cache before timing: a running server is warm.
	for _, dims := range hotSet {
		rows, err := mc.GroupBy(dims...)
		if err == nil {
			err = m.checkRead(dims, rows)
		}
		m.r.op(err)
	}

	nreads := int(m.sz.readRate * d.Seconds())
	nwrites := int(m.sz.writeRate * d.Seconds())
	sched := mixedSchedule(m.rng, nreads)
	writes := m.writeSchedule(nwrites)
	p := &mixedPhase{ops: int64(len(sched) + len(writes))}
	var mu sync.Mutex
	var wg sync.WaitGroup

	p.win = openWindow()
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, recs := range writes {
			due := t0.Add(time.Duration(float64(i) / m.sz.writeRate * float64(time.Second)))
			time.Sleep(time.Until(due))
			_, applied, err := wc.DeltaBatch(recs)
			lat := time.Since(due)
			if err == nil && applied != len(recs) {
				err = fmt.Errorf("DELTABATCH applied %d of %d records", applied, len(recs))
			}
			m.r.op(err)
			mu.Lock()
			p.acks = append(p.acks, lat)
			if err == nil {
				for _, rec := range recs {
					p.acked = append(p.acked, rec.Rows)
				}
			}
			mu.Unlock()
		}
	}()
	for i, k := range sched {
		due := t0.Add(time.Duration(float64(i) / m.sz.readRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late := time.Since(due)
		dims := hotSet[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := mc.GroupBy(dims...)
			lat := time.Since(due)
			if err == nil {
				err = m.checkRead(dims, rows)
			}
			m.r.op(err)
			mu.Lock()
			p.late = append(p.late, late)
			if err == nil {
				p.reads = append(p.reads, lat)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.win.close()
	return p, nil
}

// writeSchedule draws the phase's DELTABATCH requests: single-row
// records, all of one request in one block, the blocks taken
// round-robin, so every node receives the same batches on every seed.
func (m *mixedRun) writeSchedule(n int) [][]server.LoggedDelta {
	out := make([][]server.LoggedDelta, n)
	for i := range out {
		b := m.st.nodes[i%len(m.st.nodes)].Block
		for j := 0; j < m.sz.batch; j++ {
			coords := make([]int, len(b.Lo))
			for d := range coords {
				coords[d] = b.Lo[d] + m.rng.Intn(b.Hi[d]-b.Lo[d])
			}
			row := server.Row{Coords: coords, Value: float64(1 + m.rng.Intn(9))}
			out[i] = append(out[i], server.LoggedDelta{Rows: []server.Row{row}})
		}
	}
	return out
}

// checkRead checks a read taken while writes were arriving: it must have
// every cell of the group-by, each at least its value before any write
// (every written value is positive).
func (m *mixedRun) checkRead(dims []string, rows []server.Row) error {
	before := m.before[groupByKey(dims)]
	if len(rows) > 0 && m.c.corruptNow() {
		rows[0].Value = -1
	}
	if len(rows) != before.Size() {
		return fmt.Errorf("GROUPBY %v: %d cells, want %d", dims, len(rows), before.Size())
	}
	for _, row := range rows {
		if row.Value < before.At(row.Coords...) {
			return fmt.Errorf("GROUPBY %v: cell %v = %v, below its value %v before any write", dims, row.Coords, row.Value, before.At(row.Coords...))
		}
	}
	return nil
}

// verifyFinal checks, after the writer stopped, that TOTAL and every hot
// group-by read through the full stack equal the oracle with every
// acknowledged delta applied.
func (m *mixedRun) verifyFinal(f *facts, acked [][]server.Row) error {
	oracle, _, err := parcube.Build(f.dataset())
	if err != nil {
		return err
	}
	delta := parcube.NewDataset(oracle.Schema())
	for _, rows := range acked {
		for _, row := range rows {
			if err := delta.Add(row.Value, row.Coords...); err != nil {
				return err
			}
		}
	}
	if _, err := oracle.Update(delta); err != nil {
		return err
	}
	mc, err := server.DialMux(m.st.addr, mux.Options{RequestTimeout: shardTimeout})
	if err != nil {
		return err
	}
	defer mc.Close()
	total, err := mc.Total()
	if err != nil {
		return err
	}
	if total != oracle.Total() {
		return fmt.Errorf("final TOTAL %v, want %v", total, oracle.Total())
	}
	for _, dims := range hotSet {
		rows, err := mc.GroupBy(dims...)
		if err != nil {
			return err
		}
		want, err := oracle.GroupBy(dims...)
		if err != nil {
			return err
		}
		if err := rowsMatch(fmt.Sprintf("final GROUPBY %v", dims), rows, want.Size(), want.At); err != nil {
			return err
		}
	}
	return nil
}

// mixedLayers derives the serving tier's per-layer figures from the
// spans and the registries' deltas over the traced phase.
func mixedLayers(r *result, tr *tracer, regs *phaseRegs) {
	cache, srv, nodes, rec := regs.cache.delta(), regs.srv.delta(), regs.nodes.delta(), regs.recovery.delta()
	hits, misses := cache.vals["qcache.hits"], cache.vals["qcache.misses"]
	if hits+misses > 0 {
		r.set("qcache.hit_ratio", float64(hits)/float64(hits+misses), "fraction")
	}
	qc := tr.named("qcache")
	covered := nested(qc, tr.named("coord"))
	var hit, miss latencies
	for i, s := range qc {
		if covered[i] > 0 {
			miss = append(miss, s.dur)
		} else {
			hit = append(hit, s.dur)
		}
	}
	r.set("qcache.hit_ms", hit.median(), "ms")
	r.set("qcache.miss_ms", miss.median(), "ms")
	r.set("qcache.invalidations", float64(cache.vals["qcache.invalidations"]), "count")
	r.set("qcache.evictions", float64(cache.vals["qcache.evictions"]), "count")
	// Waits are observed only for requests that queued; spread them over
	// every admitted request.
	if n := srv.vals["mux.admitted"]; n > 0 {
		r.set("mux.wait_ms", float64(srv.sum["mux.wait_ns"])/float64(n)/1e6, "ms")
	}
	r.set("mux.overloads", float64(srv.vals["mux.overloads"]), "count")
	r.set("server.shard_deltabatch_ms", nodes.meanMS("cmd.deltabatch_ns", "cmd.delta_ns"), "ms")
	r.set("wal.group_size", rec.mean("wal.group_size"), "records")
	r.set("recovery.checkpoints", float64(rec.vals["recovery.checkpoints"]), "count")
	r.set("recovery.checkpoint_ms", rec.meanMS("recovery.checkpoint_ns"), "ms")
	for i, reg := range regs.recovery.regs {
		if n := snapRegistry(reg).vals["recovery.checkpoints"] - regs.recovery.before[i].vals["recovery.checkpoints"]; n < 2 {
			r.check(fmt.Errorf("node %d checkpointed %d times in the phase, want at least 2", i, n))
		}
	}
	r.note("wal.commit_wait_ns: %d observations (positioned batch appends bypass the commit-waiter queue)", rec.count["wal.commit_wait_ns"])
	r.note("qcache: %d hits, %d misses by span (%d by registry: %d hits, %d misses)", len(hit), len(miss), hits+misses, hits, misses)
}

// updateLayer times Cube.Update directly: single-row records applied to
// a cube of one shard's block, as each durable node applies them.
func (m *mixedRun) updateLayer(f *facts) error {
	b := m.st.nodes[0].Block
	sub, err := f.dataset().Shard(b.Lo, b.Hi)
	if err != nil {
		return err
	}
	cube, _, err := parcube.Build(sub)
	if err != nil {
		return err
	}
	var cpu latencies
	for i := 0; i < 10; i++ {
		delta := parcube.NewDataset(cube.Schema())
		coords := make([]int, len(b.Lo))
		for d := range coords {
			coords[d] = b.Lo[d] + m.rng.Intn(b.Hi[d]-b.Lo[d])
		}
		if err := delta.Add(1, coords...); err != nil {
			return err
		}
		c0 := cpuTime()
		if _, err := cube.Update(delta); err != nil {
			return err
		}
		cpu = append(cpu, cpuTime()-c0)
	}
	m.r.set("parcube.update_ms", cpu.median(), "ms")
	return nil
}
