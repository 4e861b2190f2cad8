package main

import (
	"testing"
	"time"

	"dedisys/internal/core"
	"dedisys/internal/transport"
)

// The tracer must keep the network's topology oracle visible to the
// membership service, or a partition would never degrade a view, and it
// must count exactly the messages the untraced transport delivers.
func TestTracerKeepsPartitionsAndCountsMessages(t *testing.T) {
	e, err := newEnv(shape{size: 4, flights: 40}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	cs := newClients(e, mix(0.5, 0), 1, 2)
	drive(e, cs, 100, time.Time{}, nil)
	e.settle()

	ids := make([]transport.NodeID, len(e.nodes))
	for i, n := range e.nodes {
		ids[i] = n.ID
	}
	e.net.Partition(ids[:2], ids[2:])
	if v := e.nodes[0].GMS().ViewOf(ids[0]); v.Contains(ids[2]) || v.Size() != 2 {
		t.Fatalf("view of %s after the cut: %v, want only %v", ids[0], v, ids[:2])
	}
	if m := e.nodes[0].Mode(); m != core.Degraded {
		t.Fatalf("mode of %s after the cut: %v, want degraded", ids[0], m)
	}
	drive(e, cs, 100, time.Time{}, nil)
	e.settle()
	e.net.Heal()

	var p phase
	p.collect(cs)
	if p.failed != 0 {
		t.Fatalf("%d of %d ops failed", p.failed, p.attempted)
	}
	got := e.tracers[0].messages.Load()
	want := e.reg.Counter("transport.messages").Load()
	if got == 0 || got != want {
		t.Fatalf("tracer counted %d messages, transport delivered %d", got, want)
	}
}

// Over a transport without an oracle, such as the wire transport, the
// tracer must not claim one: the membership service would then compute
// views from a topology that does not exist.
func TestTracerHidesMissingOracle(t *testing.T) {
	plain := struct{ transport.Transport }{transport.NewNetwork()}
	if _, tp := newTracer(plain); isOracle(tp) {
		t.Fatal("tracer over a transport without an oracle implements transport.Oracle")
	}
}

func isOracle(tp transport.Transport) bool {
	_, ok := tp.(transport.Oracle)
	return ok
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}} {
		if got := h.quantileUS(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("q%.2f = %.2fus, want %.0fus within 1%%", c.q, got, c.want)
		}
	}
	for v := uint64(0); v < 1<<20; v += 37 {
		i := histIndex(v)
		if lo := histLower(i); v < lo || v >= lo+histWidth(i) {
			t.Fatalf("%d in bucket %d [%d, +%d)", v, i, lo, histWidth(i))
		}
	}
}
