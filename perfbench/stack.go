package main

import (
	"errors"
	"fmt"
	"time"

	"parcube"
	"parcube/internal/mux"
	"parcube/internal/obs"
	"parcube/internal/qcache"
	"parcube/internal/server"
	"parcube/internal/shard"
	"parcube/internal/wal"
)

// stackOptions selects how the serving stack is composed. The zero value
// is what cubeshard deploys by default: in-memory shards, no cache, no
// admission.
type stackOptions struct {
	nodes      int
	durableDir string // non-empty: durable shards under this directory
	ckptEvery  int
	cacheCells int64
	admission  *mux.AdmissionConfig
	tr         *tracer // non-nil: span wrappers between the layers
}

// stack is one in-process cluster: shard nodes, the coordinator, the
// optional result cache and the coordinator's protocol server, composed
// as cmd/cubeshard composes them (server → qcache → coordinator).
type stack struct {
	plan  *shard.Plan
	nodes []*shard.Node
	coord *shard.Coordinator
	cache *qcache.Cache
	srv   *server.Server
	addr  string
}

// cubeshard's coordinator defaults.
const (
	shardTimeout = 2 * time.Second
	rejoinEvery  = 100 * time.Millisecond
)

func startStack(ds *parcube.Dataset, o stackOptions) (*stack, error) {
	sch := ds.Schema()
	plan, err := shard.NewPlan(sch.Names(), sch.Sizes(), o.nodes, 1)
	if err != nil {
		return nil, err
	}
	s := &stack{plan: plan}
	var addrs []string
	for i := 0; i < o.nodes; i++ {
		var n *shard.Node
		if o.durableDir == "" {
			n, err = shard.StartNode(plan, i, ds, "127.0.0.1:0")
		} else {
			n, err = shard.StartDurableNode(plan, i, ds, "127.0.0.1:0", shard.DurableOptions{
				DataDir:         fmt.Sprintf("%s/node%d", o.durableDir, i),
				Fsync:           wal.FsyncAlways,
				CheckpointEvery: o.ckptEvery,
				GroupCommit:     true,
			})
		}
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.nodes = append(s.nodes, n)
		addrs = append(addrs, n.Addr())
	}
	s.coord, err = shard.NewCoordinator(shard.Config{Addrs: addrs, Timeout: shardTimeout, RejoinEvery: rejoinEvery})
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	var backend server.Backend = s.coord
	if o.tr != nil {
		backend = tracedCoord{s.coord, o.tr}
	}
	if o.cacheCells > 0 {
		s.cache = qcache.Wrap(backend, qcache.Config{MaxCells: o.cacheCells})
		backend = s.cache
		if o.tr != nil {
			backend = tracedCache{s.cache, o.tr}
		}
	}
	s.srv = server.NewBackend(backend)
	if o.admission != nil {
		s.srv.ConfigureAdmission(*o.admission)
	}
	s.srv.ReadTimeout = 10 * time.Minute
	s.srv.WriteTimeout = 30 * time.Second
	if s.addr, err = s.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// close stops every server the stack started and waits for them.
func (s *stack) close() error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	for _, n := range s.nodes {
		errs = append(errs, n.Close())
	}
	return errors.Join(errs...)
}

// phaseRegs snapshots, at the start of a phase, every registry the
// phase's deltas are read from.
type phaseRegs struct {
	nodes    *watch // every node's server
	recovery *watch // every durable node's recovery and WAL registry
	coord    *watch // the coordinator
	srv      *watch // the coordinator's server
	cache    *watch // the result cache (empty without one)
}

func (s *stack) watch() *phaseRegs {
	var nodes, recovery []*obs.Registry
	for _, n := range s.nodes {
		nodes = append(nodes, n.Metrics())
		if rec := n.RecoveryMetrics(); rec != nil {
			recovery = append(recovery, rec)
		}
	}
	cache := obs.NewRegistry()
	if s.cache != nil {
		cache = s.cache.Metrics()
	}
	return &phaseRegs{
		nodes:    watchRegistries(nodes...),
		recovery: watchRegistries(recovery...),
		coord:    watchRegistries(s.coord.Metrics()),
		srv:      watchRegistries(s.srv.Metrics()),
		cache:    watchRegistries(cache),
	}
}
