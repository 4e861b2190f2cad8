package main

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
)

// tracedKinds are the message kinds whose send and handler times the traced
// run reports: commit propagation, forwarded invocations, threat exchange
// and the reconciliation pulls.
var tracedKinds = []string{"repl.batch", "node.invoke", "ccm.threat.add", "ccm.threat.pull", "repl.pull", "naming.pull"}

// spanSum accumulates the count and total duration of one span kind. It is
// safe for concurrent use.
type spanSum struct {
	n, ns atomic.Int64
}

func (s *spanSum) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

type kindSpans struct {
	send, handler spanSum
}

// tracer decorates a transport.Transport: it times every Send and every
// registered handler per message kind and counts handler invocations, which
// is what the transport counts as a delivered message.
type tracer struct {
	transport.Transport
	messages atomic.Int64
	kinds    sync.Map // kind -> *kindSpans
}

// tracingOracle is the tracer over a transport that also has a topology
// oracle. group.NewMembership type-asserts transport.Oracle to compute
// views; hiding it would leave every view full and no partition would ever
// degrade the cluster.
type tracingOracle struct {
	*tracer
	oracle transport.Oracle
}

func (t tracingOracle) Connected(a, b transport.NodeID) bool { return t.oracle.Connected(a, b) }
func (t tracingOracle) Reachable(from, to transport.NodeID) bool {
	return t.oracle.Reachable(from, to)
}
func (t tracingOracle) ReachableFrom(id transport.NodeID) []transport.NodeID {
	return t.oracle.ReachableFrom(id)
}

// newTracer wraps inner and returns the tracer together with the transport
// to hand to the middleware, which keeps inner's Oracle when it has one.
func newTracer(inner transport.Transport) (*tracer, transport.Transport) {
	t := &tracer{Transport: inner}
	if o, ok := inner.(transport.Oracle); ok {
		return t, tracingOracle{tracer: t, oracle: o}
	}
	return t, t
}

func (t *tracer) spans(kind string) *kindSpans {
	if ks, ok := t.kinds.Load(kind); ok {
		return ks.(*kindSpans)
	}
	ks, _ := t.kinds.LoadOrStore(kind, &kindSpans{})
	return ks.(*kindSpans)
}

// Send times one request, including the remote handler on an in-process
// transport.
func (t *tracer) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	start := time.Now()
	resp, err := t.Transport.Send(ctx, from, to, kind, payload)
	t.spans(kind).send.add(time.Since(start))
	return resp, err
}

// Handle registers h behind a wrapper that counts and times each call.
func (t *tracer) Handle(id transport.NodeID, kind string, h transport.Handler) error {
	ks := t.spans(kind)
	return t.Transport.Handle(id, kind, func(from transport.NodeID, payload any) (any, error) {
		t.messages.Add(1)
		start := time.Now()
		resp, err := h(from, payload)
		ks.handler.add(time.Since(start))
		return resp, err
	})
}

// txProbe is a tx.Resource registered after every middleware resource of a
// node's transaction manager. Its Prepare runs when every other participant
// has prepared and its Commit when every other participant has committed,
// so the stamps it leaves on the transaction split Commit into the prepare
// loop, the commit loop and the finish (lock release) that follows.
type txProbe struct{}

type probeStamp int

const (
	stampPrepared probeStamp = iota
	stampCommitted
)

var stampKeys = [...]string{"perfbench.prepared", "perfbench.committed"}

func stamp(t *tx.Tx, s probeStamp) { t.Put(stampKeys[s], time.Now()) }

func stampOf(t *tx.Tx, s probeStamp) (time.Time, bool) {
	v, ok := t.Value(stampKeys[s]).(time.Time)
	return v, ok
}

func (txProbe) Prepare(t *tx.Tx) error  { stamp(t, stampPrepared); return nil }
func (txProbe) Commit(t *tx.Tx) error   { stamp(t, stampCommitted); return nil }
func (txProbe) Rollback(t *tx.Tx) error { return nil }

// stages accumulates the per-stage durations of coordinator-local
// operations: begin, invoke (lock + interceptor chain + CCM + method),
// prepare loop, commit loop and finish, and the lock waits within invoke.
type stages struct {
	ops                                    int64
	begin, invoke, prepare, commit, finish time.Duration
	lockWait                               hist
}

func (s *stages) merge(o *stages) {
	s.ops += o.ops
	s.begin += o.begin
	s.invoke += o.invoke
	s.prepare += o.prepare
	s.commit += o.commit
	s.finish += o.finish
	s.lockWait.merge(&o.lockWait)
}

func (s *stages) meanUS(d time.Duration) float64 {
	if s.ops == 0 {
		return 0
	}
	return float64(d) / float64(s.ops) / 1e3
}

// regDiff is the change of the shared obs registry across a phase, with
// per-node metrics ("n3.tx.begun") summed over nodes.
type regDiff struct {
	counters map[string]int64
	hists    map[string]map[time.Duration]int64 // bucket upper bound -> count
}

// baseName strips a per-node prefix: node IDs are the first dot-separated
// segment of a node-scoped metric name.
func baseName(name string, nodes map[string]bool) string {
	if i := strings.IndexByte(name, '.'); i > 0 && nodes[name[:i]] {
		return name[i+1:]
	}
	return name
}

func diffRegistry(before, after obs.Snapshot, nodes map[string]bool) regDiff {
	d := regDiff{counters: map[string]int64{}, hists: map[string]map[time.Duration]int64{}}
	for name, v := range after.Counters {
		d.counters[baseName(name, nodes)] += v - before.Counters[name]
	}
	for name, h := range after.Histograms {
		base := baseName(name, nodes)
		buckets := d.hists[base]
		if buckets == nil {
			buckets = map[time.Duration]int64{}
			d.hists[base] = buckets
		}
		for _, b := range h.Buckets {
			buckets[b.UpperBound] += b.Count
		}
		for _, b := range before.Histograms[name].Buckets {
			buckets[b.UpperBound] -= b.Count
		}
	}
	return d
}

// percentileUS reads a percentile off a diffed registry histogram. Registry
// histograms have power-of-two buckets, so the value is an estimate within
// a factor of two.
func (d regDiff) percentileUS(name string, p float64) float64 {
	var s obs.HistogramSnapshot
	for i := 0; i < 64; i++ {
		ub := obs.BucketBound(i)
		if c := d.hists[name][ub]; c > 0 {
			s.Buckets = append(s.Buckets, obs.BucketCount{UpperBound: ub, Count: c})
			s.Count += c
		}
		if ub == obs.BucketBound(i+1) {
			break
		}
	}
	return float64(s.Percentile(p)) / 1e3
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
