package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"parcube"
	"parcube/internal/obs"
	"parcube/internal/server"
)

// readSizes is the read workload's cluster: a 64×64×32×16 cube of 200k
// facts over 4 in-memory shards (plan [2 2 1 1], replication 1).
type readSizes struct {
	shape []int
	facts int
	nodes int
	// small and large are how many statements of each small and each
	// large template one pass of the fixed sequence holds.
	small, large int
}

func readSizesFor(smoke bool) readSizes {
	if smoke {
		return readSizes{shape: []int{32, 32, 16, 16}, facts: 20000, nodes: 4, small: 2, large: 1}
	}
	return readSizes{shape: []int{64, 64, 32, 16}, facts: 200000, nodes: 4, small: 15, large: 4}
}

// statement is one read of the sequence.
type statement struct {
	groupBy []string // GROUPBY dims; nil for a QUERY
	query   string
	large   bool
}

func (s statement) key() string {
	if s.groupBy != nil {
		return groupByKey(s.groupBy)
	}
	return "QUERY " + s.query
}

// template draws one statement; lo picks a range start so that the
// range [lo, lo+w) fits in a dimension of size n.
type template struct {
	large bool
	make  func(rng *rand.Rand, shape []int) statement
}

func gb(dims ...string) func(*rand.Rand, []int) statement {
	return func(*rand.Rand, []int) statement { return statement{groupBy: dims} }
}

func q(format string, args func(rng *rand.Rand, shape []int) []any) func(*rand.Rand, []int) statement {
	return func(rng *rand.Rand, shape []int) statement {
		return statement{query: fmt.Sprintf(format, args(rng, shape)...)}
	}
}

func lo(rng *rand.Rand, n, w int) int { return rng.Intn(n - w + 1) }

// readTemplates fixes the mix: the small templates return at most 1,024
// cells and the large ones 4,096–32,768 cells on the full-size shape.
// The seed picks only filter constants and the order, never the mix, so
// every seed costs the same work.
var readTemplates = []template{
	{false, gb("A")},
	{false, gb("B")},
	{false, gb("C")},
	{false, gb("D")},
	{false, gb("A", "D")},
	{false, gb("B", "D")},
	{false, gb("C", "D")},
	{false, q("GROUP BY A WHERE B = %d", func(r *rand.Rand, s []int) []any { return []any{r.Intn(s[1])} })},
	{false, q("GROUP BY C, D WHERE A BETWEEN %d AND %d", func(r *rand.Rand, s []int) []any { l := lo(r, s[0], 8); return []any{l, l + 7} })},
	{false, q("GROUP BY A, B WHERE A BETWEEN %d AND %d", func(r *rand.Rand, s []int) []any { l := lo(r, s[0], 16); return []any{l, l + 15} })},
	{false, q("GROUP BY B WHERE C = %d AND D = %d", func(r *rand.Rand, s []int) []any { return []any{r.Intn(s[2]), r.Intn(s[3])} })},
	{false, q("GROUP BY D WHERE A = %d", func(r *rand.Rand, s []int) []any { return []any{r.Intn(s[0])} })},
	{true, gb("A", "B")},
	{true, q("GROUP BY A, B WHERE D = %d", func(r *rand.Rand, s []int) []any { return []any{r.Intn(s[3])} })},
	{true, q("GROUP BY A, B, C WHERE C BETWEEN %d AND %d", func(r *rand.Rand, s []int) []any { l := lo(r, s[2], 4); return []any{l, l + 3} })},
	{true, gb("A", "C", "D")},
	{true, gb("B", "C", "D")},
}

// readSequence draws one pass of the fixed sequence.
func readSequence(rng *rand.Rand, sz readSizes) []statement {
	var seq []statement
	for _, t := range readTemplates {
		n := sz.small
		if t.large {
			n = sz.large
		}
		for i := 0; i < n; i++ {
			s := t.make(rng, sz.shape)
			s.large = t.large
			seq = append(seq, s)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// reader issues statements over one line-protocol connection and checks
// each answer against the single-node oracle's answer, computed once
// before any measured phase. The CPU the checks take is measured on
// their own thread and taken out of the phase's process CPU.
type reader struct {
	c        *config
	r        *result
	cl       *server.Client
	want     map[string]*parcube.Table // oracle answer of every distinct statement
	checkCPU time.Duration
	// oracleLarge is the oracle cube's own time on each distinct large
	// statement: the lower bound of a read.
	oracleLarge latencies
	tr          *tracer
	probe       *probe // traced runs only
}

// newReader computes the oracle's answer to every distinct statement of
// seq from a single-node cube of ds.
func newReader(c *config, r *result, ds *parcube.Dataset, seq []statement) (*reader, error) {
	oracle, _, err := parcube.Build(ds)
	if err != nil {
		return nil, fmt.Errorf("oracle build: %w", err)
	}
	rd := &reader{c: c, r: r, want: map[string]*parcube.Table{}}
	for _, s := range seq {
		if rd.want[s.key()] != nil {
			continue
		}
		t0 := time.Now()
		if rd.want[s.key()], err = oracleTable(oracle, s); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", s.key(), err)
		}
		if s.large {
			rd.oracleLarge = append(rd.oracleLarge, time.Since(t0))
		}
	}
	return rd, nil
}

// probe reads, around each request of the closed loop, the handler
// histograms of the shard nodes and the coordinator, so that the time
// each layer spent can be set against that request's client span.
type probe struct {
	shard []*obs.Histogram // every node's GROUPBY and QUERY handlers
	merge *obs.Histogram
	nodes int
	reqs  []probed
}

// probed is one request's share of the layers' time.
type probed struct {
	shard, merge time.Duration
}

func newProbe(st *stack) *probe {
	p := &probe{merge: st.coord.Metrics().Histogram("merge_ns"), nodes: len(st.nodes)}
	for _, n := range st.nodes {
		p.shard = append(p.shard, n.Metrics().Histogram("cmd.groupby_ns"), n.Metrics().Histogram("cmd.query_ns"))
	}
	return p
}

func (p *probe) read() (count, shard, merge int64) {
	for _, h := range p.shard {
		s := h.Snapshot()
		count += s.Count
		shard += s.Sum
	}
	return count, shard, p.merge.Snapshot().Sum
}

// around runs one request and records its layers' time. Handlers record
// their latency after flushing the reply, so it waits (briefly) for every
// node's handler to have recorded before reading.
func (p *probe) around(f func() error) error {
	if p == nil {
		return f()
	}
	c0, s0, m0 := p.read()
	err := f()
	c1, s1, m1 := p.read()
	for wait := time.Now(); c1-c0 < int64(p.nodes) && err == nil && time.Since(wait) < 50*time.Millisecond; {
		time.Sleep(50 * time.Microsecond)
		c1, s1, m1 = p.read()
	}
	// The shards answer in parallel; their mean handler time is the
	// shard layer's share of the request.
	p.reqs = append(p.reqs, probed{shard: time.Duration((s1 - s0) / int64(p.nodes)), merge: time.Duration(m1 - m0)})
	return err
}

// do runs one statement, checks its answer and returns its wall time.
func (rd *reader) do(s statement) (wall time.Duration, err error) {
	var rows []server.Row
	err = rd.probe.around(func() error {
		end := rd.tr.begin("client", s.key())
		t0 := time.Now()
		var err error
		rows, err = ask(rd.cl, s)
		wall = time.Since(t0)
		end()
		return err
	})
	if err == nil {
		err = rd.verify(s, rows)
	}
	rd.r.op(err)
	return wall, err
}

// ask sends one statement over a line-protocol connection.
func ask(cl *server.Client, s statement) ([]server.Row, error) {
	if s.groupBy != nil {
		return cl.GroupBy(s.groupBy...)
	}
	return cl.Query(s.query)
}

// oracleTable answers a statement from a local cube.
func oracleTable(cube *parcube.Cube, s statement) (*parcube.Table, error) {
	if s.groupBy != nil {
		return cube.GroupBy(s.groupBy...)
	}
	return cube.Query(s.query)
}

// verify checks an answer cell for cell against the oracle's, adding
// the CPU it takes to rd.checkCPU. The goroutine stays on its thread
// while the check runs, so that thread's CPU is the check's.
func (rd *reader) verify(s statement, rows []server.Row) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	defer func() { rd.checkCPU += threadCPU() - c0 }()
	want := rd.want[s.key()]
	if len(rows) > 0 && rd.c.corruptNow() {
		rows[0].Value++
	}
	return rowsMatch(s.key(), rows, want.Size(), want.At)
}

// rowsMatch checks that rows hold exactly size cells equal to want.
func rowsMatch(what string, rows []server.Row, size int, want func(...int) float64) error {
	if len(rows) != size {
		return fmt.Errorf("%s: %d cells, want %d", what, len(rows), size)
	}
	for _, row := range rows {
		if w := want(row.Coords...); row.Value != w {
			return fmt.Errorf("%s: cell %v = %v, want %v", what, row.Coords, row.Value, w)
		}
	}
	return nil
}

// readPhase runs whole passes of seq until d has elapsed.
type readPhase struct {
	cpu          time.Duration // process CPU of the phase, less the checks'
	passes       int
	small, large latencies
	queries      int64
	win          *window
}

// cpuPerQuery is the process CPU of one query in ms: the whole phase's,
// less the answer checks', over the queries answered.
func (p *readPhase) cpuPerQuery() float64 { return ms(p.cpu) / float64(p.queries) }

func (rd *reader) phase(seq []statement, rng *rand.Rand, d time.Duration) *readPhase {
	p := &readPhase{win: openWindow()}
	check0 := rd.checkCPU
	for deadline := time.Now().Add(d); p.passes == 0 || time.Now().Before(deadline); p.passes++ {
		for _, s := range seq {
			wall, err := rd.do(s)
			if err != nil {
				continue
			}
			p.queries++
			if s.large {
				p.large = append(p.large, wall)
			} else {
				p.small = append(p.small, wall)
			}
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	}
	p.win.close()
	p.cpu = p.win.cpu - (rd.checkCPU - check0)
	return p
}

// runRead measures uncached distributed reads: one client in a closed
// loop over the coordinator's line protocol, replaying a fixed seeded
// sequence of GROUPBY and filtered QUERY statements.
func runRead(c *config, r *result) error {
	sz := readSizesFor(c.smoke)
	rng := rand.New(rand.NewSource(c.seed))
	f := genFacts(rng.Int63(), sz.shape, sz.facts)
	seq := readSequence(rng, sz)

	var ds *parcube.Dataset
	var st *stack
	var cl *server.Client
	teardown := func() {
		if cl != nil {
			cl.Close()
		}
		if st != nil {
			r.check(st.close())
		}
		cl, st = nil, nil
	}
	defer teardown()
	start := func(f *facts, tr *tracer) error {
		ds = f.dataset()
		var err error
		if st, err = startStack(ds, stackOptions{nodes: sz.nodes, tr: tr}); err != nil {
			return err
		}
		cl, err = server.DialTimeout(st.addr, 5*time.Second)
		return err
	}
	if err := r.timeSetups(func() error { return start(f, nil) }, teardown); err != nil {
		return err
	}
	rd, err := newReader(c, r, ds, seq)
	if err != nil {
		return err
	}
	rd.cl = cl
	// One unmeasured pass warms connection pools and the heap.
	rd.phase(seq, rng, 0)

	p := rd.phase(seq, rng, c.phase())
	r.phaseNote("untraced", p.win)
	r.set("cpu_ms_per_op", p.cpuPerQuery(), "ms")
	r.note("read: plan %s; %d passes of %d statements; answer checks took %.3f s CPU, not counted", st.plan, p.passes, len(seq), (p.win.cpu - p.cpu).Seconds())
	r.latency("client.query_small_p50_ms", p.small)
	r.latency("client.query_large_p50_ms", p.large)
	if !c.trace {
		return nil
	}

	// Traced run: a fresh stack with span wrappers between the layers.
	teardown()
	tr := &tracer{}
	if err := start(f, tr); err != nil {
		return err
	}
	rd.cl, rd.tr = cl, tr
	rd.phase(seq, rng, 0)
	tr.spans = nil
	rd.probe = newProbe(st)
	regs := st.watch()
	tp := rd.phase(seq, rng, c.phase())
	r.phaseNote("traced", tp.win)
	r.set("trace.overhead_frac", tp.cpuPerQuery()/p.cpuPerQuery()-1, "fraction")
	r.runtimeMetrics(tp.win, tp.queries)
	readLayers(r, tr, rd.probe.reqs, regs, seq)
	r.set("parcube.groupby_ms", rd.oracleLarge.median(), "ms")

	// Lemma 1's unit on the serving path, counted on this input and on a
	// second one of the same size from another seed: the count is exact
	// and must repeat.
	rows, err := ingressRows(st, seq)
	if err != nil {
		return err
	}
	teardown()
	if err := start(genFacts(c.seed^0x5eed, sz.shape, sz.facts), nil); err != nil {
		return err
	}
	rowsb, err := ingressRows(st, seq)
	if err != nil {
		return err
	}
	var cells int64
	for _, want := range rd.want {
		cells += int64(want.Size())
	}
	r.exact("shard.ingress_rows", rows, rowsb)
	r.set("shard.ingress_rows_per_cell", float64(rows)/float64(cells), "rows/cell")
	r.note("ingress: %d distinct statements, %d rows for %d result cells", len(rd.want), rows, cells)
	return nil
}

// readLayers derives the read path's per-layer figures from the spans,
// the per-request handler times and the registries' deltas over the
// traced phase.
//
// The attribution check splits each client span into the layers
// measured at their own boundaries: the codec (client span minus
// coordinator span: the coordinator's reply encoding, the wire and the
// client's parsing), the shard handlers and the coordinator's merge. What
// is left is the time no layer's span accounts for — today chiefly the
// coordinator receiving and parsing the shards' replies.
func readLayers(r *result, tr *tracer, reqs []probed, regs *phaseRegs, seq []statement) {
	large := map[string]bool{}
	for _, s := range seq {
		large[s.key()] = s.large
	}
	client, coord := tr.named("client"), tr.named("coord")
	covered := nested(client, coord)
	var clientL, coordL, codecL, shardL latencies
	var unattr [2][]float64 // small, large
	for i, s := range client {
		if i >= len(reqs) {
			break
		}
		codec := s.dur - covered[i]
		rest := covered[i] - reqs[i].shard - reqs[i].merge
		class := 0
		if large[s.key] {
			class = 1
			clientL = append(clientL, s.dur)
			coordL = append(coordL, covered[i])
			codecL = append(codecL, codec)
			shardL = append(shardL, reqs[i].shard)
		}
		unattr[class] = append(unattr[class], float64(rest)/float64(s.dur))
	}
	nodes, cd, srv := regs.nodes.delta(), regs.coord.delta(), regs.srv.delta()
	r.set("shard.coord_ms", coordL.median(), "ms")
	r.set("server.codec_ms", codecL.median(), "ms")
	r.set("shard.ask_ms", cd.meanMS("ask_ns"), "ms")
	r.set("shard.merge_ms", cd.meanMS("merge_ns"), "ms")
	r.set("server.shard_handler_ms", nodes.meanMS("cmd.groupby_ns", "cmd.query_ns"), "ms")
	r.set("server.coord_handler_ms", srv.meanMS("cmd.groupby_ns", "cmd.query_ns"), "ms")
	r.set("trace.unattributed_frac_small", medianFloat(unattr[0]), "fraction")
	r.set("trace.unattributed_frac_large", medianFloat(unattr[1]), "fraction")
	r.note("attribution (large): p50 client=%.3f ms = codec %.3f + coordinator %.3f (of which shard handler %.3f); %d client spans, %d coordinator spans",
		clientL.median(), codecL.median(), coordL.median(), shardL.median(), len(client), len(coord))
}

// ingressRows counts the rows the coordinator receives from the shards
// for one pass of every distinct statement of seq, by asking each node
// directly.
func ingressRows(st *stack, seq []statement) (int64, error) {
	var clients []*server.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for _, n := range st.nodes {
		cl, err := server.DialTimeout(n.Addr(), 5*time.Second)
		if err != nil {
			return 0, err
		}
		clients = append(clients, cl)
	}
	seen := map[string]bool{}
	var rows int64
	for _, s := range seq {
		if seen[s.key()] {
			continue
		}
		seen[s.key()] = true
		for _, cl := range clients {
			got, err := ask(cl, s)
			if err != nil {
				return 0, fmt.Errorf("shard %s %s: %w", cl.Addr(), s.key(), err)
			}
			rows += int64(len(got))
		}
	}
	return rows, nil
}
