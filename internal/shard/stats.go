package shard

import "parcube/internal/obs"

// Stats is a snapshot of coordinator scatter-gather activity, in the
// style of internal/comm.Stats, plus the latency distributions of the
// fan-out path.
type Stats struct {
	// Fanouts is the number of per-block sub-requests issued (one per
	// owning block per query).
	Fanouts int64
	// Retries counts attempts made after a failure, including the backoff
	// wait that precedes them.
	Retries int64
	// Failovers counts sub-requests ultimately answered by a replica other
	// than the first choice.
	Failovers int64
	// Errors counts individual sub-request failures (timeouts, transport
	// errors, ERR replies) observed before any successful answer.
	Errors int64
	// AskLatency summarizes the nanoseconds each per-block sub-request
	// took end to end, including every retry, backoff, and failover
	// attempt — the tail here is what a slow or flapping replica costs.
	AskLatency obs.HistogramSnapshot
	// MergeLatency summarizes the nanoseconds spent merging the gathered
	// per-shard slabs after the scatter completes.
	MergeLatency obs.HistogramSnapshot
	// IngressCells counts the slab cells shards sent for GROUPBY and QUERY
	// answers: |G| times the parts of every partitioned dimension an
	// answer G drops, by the paper's Lemma 1.
	IngressCells int64
	// Deltas counts acknowledged ingest requests; DeltaCells the cells
	// they carried across all blocks.
	Deltas     int64
	DeltaCells int64
	// ReplicaDowns counts replicas evicted from the serving set after a
	// transport failure on the write path; Rejoins counts re-admissions
	// by the background rejoin loop; CatchupRecords the log records
	// streamed from live peers to catch rejoining replicas up.
	ReplicaDowns   int64
	Rejoins        int64
	CatchupRecords int64
	// TailTruncates counts rejoin repairs that discarded a recovering
	// replica's unacknowledged (or divergent) log tail before catch-up.
	TailTruncates int64
	// HedgesFired counts hedged reads that launched a second attempt
	// after the hedge delay; HedgeWins counts those where the second
	// attempt answered first. Wins without fires would mean the delay
	// is far too aggressive; fires without wins, too conservative.
	HedgesFired int64
	HedgeWins   int64
	// AttemptLatency summarizes single-attempt latencies (one replica,
	// no retries) — the distribution the hedge delay is derived from.
	AttemptLatency obs.HistogramSnapshot
}

// counters is the coordinator's per-instance metrics registry with the
// hot-path series pre-resolved, so recording is one atomic op.
type counters struct {
	reg            *obs.Registry
	fanouts        *obs.Counter
	retries        *obs.Counter
	failovers      *obs.Counter
	errors         *obs.Counter
	askNs          *obs.Histogram
	mergeNs        *obs.Histogram
	ingressCells   *obs.Counter
	deltas         *obs.Counter
	deltaCells     *obs.Counter
	replicaDowns   *obs.Counter
	rejoins        *obs.Counter
	catchupRecords *obs.Counter
	tailTruncates  *obs.Counter
	hedgesFired    *obs.Counter
	hedgeWins      *obs.Counter
	attemptNs      *obs.Histogram
	ingestBatch    *obs.Histogram
}

// newCounters builds the registry and resolves the series.
func newCounters() *counters {
	reg := obs.NewRegistry()
	return &counters{
		reg:            reg,
		fanouts:        reg.Counter("fanouts"),
		retries:        reg.Counter("retries"),
		failovers:      reg.Counter("failovers"),
		errors:         reg.Counter("shard_errors"),
		askNs:          reg.Histogram("ask_ns"),
		mergeNs:        reg.Histogram("merge_ns"),
		ingressCells:   reg.Counter("ingress_cells"),
		deltas:         reg.Counter("deltas"),
		deltaCells:     reg.Counter("delta_cells"),
		replicaDowns:   reg.Counter("replica_downs"),
		rejoins:        reg.Counter("rejoins"),
		catchupRecords: reg.Counter("catchup_records"),
		tailTruncates:  reg.Counter("tail_truncates"),
		hedgesFired:    reg.Counter("hedges_fired"),
		hedgeWins:      reg.Counter("hedge_wins"),
		attemptNs:      reg.Histogram("attempt_ns"),
		ingestBatch:    reg.Histogram("ingest_batch_size"),
	}
}

// snapshot returns the current totals.
func (c *counters) snapshot() Stats {
	return Stats{
		Fanouts:        c.fanouts.Value(),
		Retries:        c.retries.Value(),
		Failovers:      c.failovers.Value(),
		Errors:         c.errors.Value(),
		AskLatency:     c.askNs.Snapshot(),
		MergeLatency:   c.mergeNs.Snapshot(),
		IngressCells:   c.ingressCells.Value(),
		Deltas:         c.deltas.Value(),
		DeltaCells:     c.deltaCells.Value(),
		ReplicaDowns:   c.replicaDowns.Value(),
		Rejoins:        c.rejoins.Value(),
		CatchupRecords: c.catchupRecords.Value(),
		TailTruncates:  c.tailTruncates.Value(),
		HedgesFired:    c.hedgesFired.Value(),
		HedgeWins:      c.hedgeWins.Value(),
		AttemptLatency: c.attemptNs.Snapshot(),
	}
}
