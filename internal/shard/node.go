package shard

import (
	"errors"
	"fmt"

	"parcube"
	"parcube/internal/nd"
	"parcube/internal/obs"
	"parcube/internal/server"
)

// Node is one shard server: the cube of one block of the global fact
// table, served over the standard line protocol plus the SHARDINFO
// handshake a coordinator discovers the topology with.
type Node struct {
	// ID is the node's index in the plan; Block the global sub-box whose
	// facts its cube aggregates. Cube is the state at startup — durable
	// nodes can replace their live cube at runtime (a coordinator-driven
	// TRUNCATE rebuilds it from checkpoint + log), so query through the
	// protocol, not this field, when truncation is in play.
	ID    int
	Block nd.Block
	Cube  *parcube.Cube

	srv  *server.Server
	addr string

	// durable and rec are set by StartDurableNode: the ingesting backend
	// with its WAL/checkpoint manager, and its recovery metrics registry.
	durable *durableBackend
	rec     *obs.Registry
}

// StartNode carves node id's block out of the dataset, builds its
// sub-cube, and serves it on addr (use "127.0.0.1:0" for an ephemeral
// port). The sub-cube keeps the full schema at global coordinates, but a
// group-by reads only the block's slab of it: the cells the block's facts
// can reach, at result coordinates. Every other cell is the operator's
// identity, so the coordinator merges slabs instead of whole tables
// (Lemma 1).
func StartNode(plan *Plan, id int, ds *parcube.Dataset, addr string, opts ...parcube.BuildOption) (*Node, error) {
	block, err := plan.BlockOfNode(id)
	if err != nil {
		return nil, err
	}
	sub, err := ds.Shard(block.Lo, block.Hi)
	if err != nil {
		return nil, fmt.Errorf("shard: node %d: %w", id, err)
	}
	cube, _, err := parcube.Build(sub, opts...)
	if err != nil {
		return nil, fmt.Errorf("shard: node %d build: %w", id, err)
	}
	return ServeNode(cube, id, block, addr)
}

// ServeNode serves an already-built block sub-cube as shard node id.
func ServeNode(cube *parcube.Cube, id int, block nd.Block, addr string) (*Node, error) {
	n := &Node{ID: id, Block: block, Cube: cube, srv: server.New(cube)}
	n.srv.SetShardInfo(server.ShardInfo{
		ID:    id,
		Op:    cube.Aggregator().String(),
		Block: block.String(),
		Lo:    block.Lo,
		Hi:    block.Hi,
	})
	bound, err := n.srv.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("shard: node %d listen: %w", id, err)
	}
	n.addr = bound
	return n, nil
}

// Addr returns the node's bound address.
func (n *Node) Addr() string { return n.addr }

// Metrics returns the node server's per-command metrics registry.
func (n *Node) Metrics() *obs.Registry { return n.srv.Metrics() }

// Close stops the node's server and, for durable nodes, flushes and
// closes the WAL — the clean-shutdown counterpart of Crash.
//
//cubelint:ignore lock-order the final fsync on close runs under the backend lock so no delta can race the shutdown
func (n *Node) Close() error {
	err := n.srv.Close()
	if n.durable != nil {
		n.durable.mu.Lock()
		cerr := n.durable.mgr.Close()
		n.durable.mu.Unlock()
		return errors.Join(err, cerr)
	}
	return err
}
