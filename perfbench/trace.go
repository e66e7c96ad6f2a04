package main

import (
	"sort"
	"sync"
	"time"

	"parcube/internal/qcache"
	"parcube/internal/server"
	"parcube/internal/shard"
)

// span is one timed call at a layer boundary. key names the request
// ("GROUPBY A,B", "QUERY ..."), so a span can be matched to the spans of
// the same request in the layers above and below it.
type span struct {
	name  string
	key   string
	start time.Time
	dur   time.Duration
}

func (s span) end() time.Time { return s.start.Add(s.dur) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs measure: the serving stack is
// then composed without the wrappers below.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

var noop = func() {}

// begin starts a span; the returned func ends it.
func (t *tracer) begin(name, key string) func() {
	if t == nil {
		return noop
	}
	start := time.Now()
	return func() {
		s := span{name: name, key: key, start: start, dur: time.Since(start)}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// named returns the recorded spans of one layer, in start order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// nested pairs each outer span with the inner spans of the same request
// that it encloses, and returns the time the inner layer covered inside
// each outer span (in outer order; 0 when it did not reach that layer).
func nested(outer, inner []span) []time.Duration {
	byKey := map[string][]span{}
	for _, s := range inner {
		byKey[s.key] = append(byKey[s.key], s)
	}
	covered := make([]time.Duration, len(outer))
	for i, o := range outer {
		for _, s := range byKey[o.key] {
			if !s.start.Before(o.start) && !s.end().After(o.end()) {
				covered[i] += s.dur
			}
		}
	}
	return covered
}

func groupByKey(dims []string) string {
	key := "GROUPBY "
	for i, d := range dims {
		if i > 0 {
			key += ","
		}
		key += d
	}
	return key
}

// tracedCoord records a span around every read the coordinator answers.
// It sits exactly where cubeshard hands the coordinator to the next
// layer up (the qcache or the protocol server); embedding keeps every
// other coordinator method — ingest, invalidation events, planning —
// visible to that layer unchanged.
type tracedCoord struct {
	*shard.Coordinator
	t *tracer
}

func (c tracedCoord) GroupBy(dims ...string) (server.Result, error) {
	defer c.t.begin("coord", groupByKey(dims))()
	return c.Coordinator.GroupBy(dims...)
}

func (c tracedCoord) Query(stmt string) (server.Result, error) {
	defer c.t.begin("coord", "QUERY "+stmt)()
	return c.Coordinator.Query(stmt)
}

// tracedCache records a span around every read the result cache
// answers, between the protocol server and the cache.
type tracedCache struct {
	*qcache.Cache
	t *tracer
}

func (c tracedCache) GroupBy(dims ...string) (server.Result, error) {
	defer c.t.begin("qcache", groupByKey(dims))()
	return c.Cache.GroupBy(dims...)
}
