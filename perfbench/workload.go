package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dedisys/internal/node"
	"dedisys/internal/object"
)

type opKind uint8

const (
	opRead opKind = iota
	opSell
	opCancel
	opRebook // cancel on flight a and sell on flight b in one transaction
)

// op is one scheduled operation. entry is the node it is issued at: a
// replica for reads, the coordinator for writes, or the round-robin entry
// node under a partition.
type op struct {
	kind  opKind
	count int8
	entry uint8
	a, b  int32
}

func (o op) isWrite() bool { return o.kind != opRead }

// Latency classes.
const (
	classRead = iota
	classWrite
	nClasses
)

// scheduleLen is the length of each client's schedule; a client that
// reaches its end starts over.
const scheduleLen = 1 << 15

// generator draws one client's schedule.
type generator func(rng *rand.Rand, e *env, client, clients int) []op

// mix draws ops with the given read share over flights picked uniformly
// (skew 0) or Zipf-skewed with exponent skew. Writes are sales and
// cancellations, equally likely, of 1 to 4 tickets. Reads go to the
// flight's replicas in turn and writes to its coordinator.
func mix(readShare, skew float64) generator {
	return func(rng *rand.Rand, e *env, client, clients int) []op {
		pick := func() int { return rng.Intn(e.flights) }
		if skew > 0 {
			zipf := rand.NewZipf(rng, skew, 1, uint64(e.flights-1))
			pick = func() int { return int(zipf.Uint64()) }
		}
		ops := make([]op, scheduleLen)
		rr := client
		for i := range ops {
			f := pick()
			o := op{a: int32(f), count: int8(1 + rng.Intn(4))}
			switch {
			case rng.Float64() < readShare:
				o.kind = opRead
				reps := e.replicas[f]
				o.entry = reps[rr%len(reps)]
				rr++
			case rng.Intn(2) == 0:
				o.kind, o.entry = opSell, e.home[f]
			default:
				o.kind, o.entry = opCancel, e.home[f]
			}
			ops[i] = o
		}
		return ops
	}
}

// writeHot draws 80% writes on Zipf-skewed flights; a quarter of the writes
// are rebook transactions moving tickets between two flights of one replica
// group, which therefore share a coordinator.
func writeHot(rng *rand.Rand, e *env, client, clients int) []op {
	byGroup := map[string][]int32{}
	groupOf := make([]string, e.flights)
	for f := range e.ids {
		g := fmt.Sprint(e.replicas[f])
		groupOf[f] = g
		byGroup[g] = append(byGroup[g], int32(f))
	}
	ops := mix(0.2, 1.1)(rng, e, client, clients)
	for i, o := range ops {
		if o.isWrite() && rng.Intn(4) == 0 {
			peers := byGroup[groupOf[o.a]]
			if b := peers[rng.Intn(len(peers))]; b != o.a {
				ops[i] = op{kind: opRebook, count: o.count, entry: e.home[o.a], a: o.a, b: b}
			}
		}
	}
	return ops
}

// partitioned draws the degraded traffic of partition-heal: ops enter at
// every node in turn, half are writes, and each targets a flight with a
// replica on the entry node's side of the cut, since a flight whose whole
// replica group is across the cut cannot be served.
func partitioned(rng *rand.Rand, e *env, client, clients int) []op {
	side := func(n uint8) int { return int(n) * 2 / e.size }
	reachable := [2][]int32{}
	for f, reps := range e.replicas {
		var has [2]bool
		for _, r := range reps {
			has[side(r)] = true
		}
		for s := range has {
			if has[s] {
				reachable[s] = append(reachable[s], int32(f))
			}
		}
	}
	ops := make([]op, scheduleLen)
	for i := range ops {
		entry := uint8((i*clients + client) % e.size)
		flights := reachable[side(entry)]
		o := op{a: flights[rng.Intn(len(flights))], count: int8(1 + rng.Intn(4)), entry: entry}
		switch rng.Intn(4) {
		case 0, 1:
			o.kind = opRead
		case 2:
			o.kind = opSell
		default:
			o.kind = opCancel
		}
		ops[i] = o
	}
	return ops
}

// client is one closed-loop caller: it issues its schedule's next op only
// after the previous one returned.
type client struct {
	sched             []op
	next              int
	lat               [nClasses]hist
	st                [nClasses]stages
	attempted, failed int64
	delta             []int64 // committed change of sold per flight
	staged            bool    // time coordinator-local ops stage by stage

	// In a windowed phase, latencies also go to the window of their start
	// since t0, and done counts the ops for the CPU sampler.
	t0      time.Time
	windows [][nClasses]hist
	done    atomic.Int64
}

func (c *client) reset() {
	c.lat = [nClasses]hist{}
	c.st = [nClasses]stages{}
	c.attempted, c.failed = 0, 0
}

func newClients(e *env, gen generator, seed int64, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		cs[i] = &client{sched: gen(rng, e, i, n), delta: make([]int64, e.flights)}
	}
	return cs
}

// drive runs every client until it has issued ops operations (ops > 0) or
// until the deadline passes. With a probe, each op holds its gate, so no
// measurement of the machine's speed runs beside it.
func drive(e *env, cs []*client, ops int, deadline time.Time, pr *probe) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; ops <= 0 || i < ops; i++ {
				o := c.sched[c.next%len(c.sched)]
				c.next++
				if pr != nil {
					pr.gate.RLock()
				}
				start := time.Now()
				err := c.do(e, o)
				end := time.Now()
				if pr != nil {
					pr.gate.RUnlock()
				}
				class := classRead
				if o.isWrite() {
					class = classWrite
				}
				c.lat[class].add(end.Sub(start))
				if c.windows != nil {
					if i := int(start.Sub(c.t0) / window); i < len(c.windows) {
						c.windows[i][class].add(end.Sub(start))
					}
				}
				c.done.Add(1)
				c.attempted++
				if err != nil {
					c.failed++
				}
				if ops <= 0 && end.After(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

var methods = [...]string{opRead: "Sold", opSell: "SellTickets", opCancel: "CancelTickets"}

// do issues one op and records its committed effect on sold.
func (c *client) do(e *env, o op) error {
	n := e.nodes[o.entry]
	count := int64(o.count)
	switch o.kind {
	case opRebook:
		// Lock in ID order, as any two transactions touching both flights
		// must, so two rebooks cannot deadlock.
		first, second := o.a, o.b
		m1, m2 := "CancelTickets", "SellTickets"
		if first > second {
			first, second, m1, m2 = second, first, m2, m1
		}
		err := c.inTx(n, classWrite, []object.ID{e.ids[first], e.ids[second]}, []string{m1, m2}, count)
		if err == nil {
			c.delta[o.a] -= count
			c.delta[o.b] += count
		}
		return err
	case opRead:
		if c.staged {
			return c.inTx(n, classRead, []object.ID{e.ids[o.a]}, methods[o.kind:o.kind+1], count)
		}
		_, err := n.Invoke(e.ids[o.a], methods[o.kind])
		return err
	}
	var err error
	if c.staged {
		err = c.inTx(n, classWrite, []object.ID{e.ids[o.a]}, methods[o.kind:o.kind+1], count)
	} else {
		_, err = n.Invoke(e.ids[o.a], methods[o.kind], count)
	}
	if err == nil {
		if o.kind == opSell {
			c.delta[o.a] += count
		} else {
			c.delta[o.a] -= count
		}
	}
	return err
}

// inTx runs the methods on the targets in one explicit transaction at n,
// which must be their coordinator for writes. When staged, it times the
// transaction stage by stage.
func (c *client) inTx(n *node.Node, class int, targets []object.ID, ms []string, count int64) error {
	t0 := time.Now()
	t := n.BeginCtx(context.Background())
	t1 := time.Now()
	var lockWait time.Duration
	for i, id := range targets {
		if c.staged {
			// Taking the lock before InvokeTx separates its wait; InvokeTx
			// then finds it held.
			l0 := time.Now()
			if err := t.Lock(id); err != nil {
				_ = t.Rollback()
				return err
			}
			lockWait += time.Since(l0)
		}
		var err error
		if ms[i] == "Sold" {
			_, err = n.InvokeTx(t, id, ms[i])
		} else {
			_, err = n.InvokeTx(t, id, ms[i], count)
		}
		if err != nil {
			_ = t.Rollback()
			return err
		}
	}
	t2 := time.Now()
	if err := t.Commit(); err != nil {
		return err
	}
	if !c.staged {
		return nil
	}
	t5 := time.Now()
	t3, ok1 := stampOf(t, stampPrepared)
	t4, ok2 := stampOf(t, stampCommitted)
	if !ok1 || !ok2 {
		return fmt.Errorf("transaction at %s finished without probe stamps", n.ID)
	}
	s := &c.st[class]
	s.ops++
	s.begin += t1.Sub(t0)
	s.invoke += t2.Sub(t1)
	s.prepare += t3.Sub(t2)
	s.commit += t4.Sub(t3)
	s.finish += t5.Sub(t4)
	s.lockWait.add(lockWait)
	return nil
}
