package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dedisys/internal/apps/flight"
	"dedisys/internal/constraint"
	"dedisys/internal/group"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/placement"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// Every flight starts with this many seats and tickets sold. Sales and
// cancellations are equally likely, so sold stays far from both 0 and the
// seat count: no operation is refused by the ticket constraint, and every
// sold value keeps the same encoded size on the wire.
const (
	initialSeats = 2_000_000
	initialSold  = 1_000_000
)

// shape is a cluster configuration.
type shape struct {
	size, groups, rf int // groups 0 places every flight on every node
	flights          int
	quorum           bool // quorum commit; otherwise P4
	wire             bool // unix-socket wire transport; otherwise the simulated network
}

// env is one built and filled cluster.
type env struct {
	shape
	nodes   []*node.Node
	cluster *node.Cluster // the nodes as the chaos invariant checks expect them
	net     *transport.Network
	ring    *placement.Ring // nil under full replication
	reg     *obs.Registry
	tracers []*tracer // nil in untraced runs
	wires   []*wiretransport.Wire
	sockDir string

	ids      []object.ID
	home     []uint8   // node index of each flight's coordinator
	replicas [][]uint8 // node indexes of each flight's replicas
	nodeSet  map[string]bool
}

func flightID(i int) object.ID { return object.ID(fmt.Sprintf("f%05d", i)) }

// ticketConstraint is the ticket constraint deployed as a hard, tradeable
// invariant, so every sale and cancellation is validated by the CCM and a
// write in degraded mode is accepted with a consistency threat.
func ticketConstraint() constraint.Configured {
	return flight.TicketConstraint(constraint.HardInvariant, constraint.Tradeable, constraint.Uncheckable)
}

// newEnv builds the cluster and creates its flights through their home
// nodes. With traced set every node's transport is wrapped in a tracer and
// every transaction manager gets a txProbe.
func newEnv(s shape, traced bool) (*env, error) {
	e := &env{shape: s, nodeSet: map[string]bool{}}
	var err error
	if s.wire {
		err = e.buildWire(traced)
	} else {
		err = e.buildSim(traced)
	}
	if err != nil {
		e.stop()
		return nil, err
	}
	for _, n := range e.nodes {
		e.nodeSet[string(n.ID)] = true
		n.RegisterSchema(flight.Schema())
		if err := n.DeployConstraints([]constraint.Configured{ticketConstraint()}); err != nil {
			e.stop()
			return nil, err
		}
		if traced {
			n.TxMgr.RegisterResource(txProbe{})
		}
	}
	e.cluster = &node.Cluster{Net: e.net, Nodes: e.nodes, Ring: e.ring}
	if err := e.fill(); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

func (e *env) protocol() replication.Protocol {
	if e.quorum {
		return replication.Quorum{}
	}
	return replication.PrimaryPerPartition{}
}

func (e *env) buildSim(traced bool) error {
	base := obs.New()
	e.reg = base.Registry()
	e.net = transport.NewNetwork(transport.WithObserver(base))
	ids := make([]transport.NodeID, e.size)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
		if err := e.net.Join(ids[i]); err != nil {
			return err
		}
	}
	var tp transport.Transport = e.net
	if traced {
		var tr *tracer
		tr, tp = newTracer(e.net)
		e.tracers = []*tracer{tr}
	}
	gms := group.NewMembership(tp)
	var ring *placement.Ring
	if e.groups > 0 {
		r, err := placement.New(ids, placement.Config{Groups: e.groups, ReplicationFactor: e.rf})
		if err != nil {
			return err
		}
		ring = r
	}
	e.ring = ring
	for _, id := range ids {
		n, err := node.New(node.Options{
			ID: id, Net: tp, GMS: gms, Protocol: e.protocol(),
			RepoCache: true, Placement: ring, Obs: base,
		})
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, n)
	}
	e.place(func(id object.ID) []transport.NodeID {
		if ring == nil {
			return ids
		}
		_, reps := ring.Place(id)
		return reps
	})
	return nil
}

// buildWire assembles in-process endpoints over unix sockets, each node
// with its own static-view membership, as cmd/dedisys-node does across
// processes. Socket paths are relative to the working directory, which
// keeps them short and inside the checkout.
func (e *env) buildWire(traced bool) error {
	base := obs.New()
	e.reg = base.Registry()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "sock")
	if err != nil {
		return err
	}
	e.sockDir = dir
	peers := map[transport.NodeID]string{}
	ids := make([]transport.NodeID, e.size)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("w%d", i))
		peers[ids[i]] = "unix:" + filepath.Join(dir, string(ids[i]))
	}
	for _, id := range ids {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			return err
		}
		if err := w.Start(); err != nil {
			return err
		}
		e.wires = append(e.wires, w)
		var tp transport.Transport = w
		if traced {
			var tr *tracer
			tr, tp = newTracer(w)
			e.tracers = append(e.tracers, tr)
		}
		n, err := node.New(node.Options{
			ID: id, Net: tp, GMS: group.NewMembership(tp), Protocol: e.protocol(),
			RepoCache: true, Obs: base,
		})
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range e.wires {
		if err := w.WaitPeers(ctx); err != nil {
			return fmt.Errorf("wire peers: %w", err)
		}
	}
	e.place(func(object.ID) []transport.NodeID { return ids })
	return nil
}

// place records each flight's replicas and coordinator. Under full
// replication homes rotate over the nodes; under sharded placement the
// home is the group's first replica.
func (e *env) place(replicasOf func(object.ID) []transport.NodeID) {
	index := map[transport.NodeID]uint8{}
	for i, n := range e.nodes {
		index[n.ID] = uint8(i)
	}
	e.ids = make([]object.ID, e.flights)
	e.home = make([]uint8, e.flights)
	e.replicas = make([][]uint8, e.flights)
	for i := range e.ids {
		id := flightID(i)
		e.ids[i] = id
		reps := replicasOf(id)
		idx := make([]uint8, len(reps))
		for j, r := range reps {
			idx[j] = index[r]
		}
		e.replicas[i] = idx
		if e.groups > 0 {
			e.home[i] = idx[0]
		} else {
			e.home[i] = uint8(i % len(e.nodes))
		}
	}
}

func (e *env) fill() error {
	for i, id := range e.ids {
		n := e.nodes[e.home[i]]
		reps := make([]transport.NodeID, len(e.replicas[i]))
		for j, r := range e.replicas[i] {
			reps[j] = e.nodes[r].ID
		}
		if err := n.Create(flight.Class, id, flight.New(initialSeats, initialSold), replication.NewInfo(n.ID, reps)); err != nil {
			return fmt.Errorf("create %s: %w", id, err)
		}
	}
	e.settle()
	return nil
}

// settle joins the quorum protocol's background straggler sends.
func (e *env) settle() {
	for _, n := range e.nodes {
		n.Repl.WaitPropagation()
	}
}

func (e *env) stop() {
	for _, n := range e.nodes {
		n.Stop()
	}
	for _, w := range e.wires {
		w.Close()
	}
	if e.sockDir != "" {
		os.RemoveAll(e.sockDir)
	}
}
