package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"dedisys/internal/apps/flight"
	"dedisys/internal/chaos"
	"dedisys/internal/constraint"
	"dedisys/internal/obs"
	"dedisys/internal/reconcile"
	"dedisys/internal/transport"
)

// setupRuns is how many times a timed run builds, fills and warms its
// cluster; setup_s is the median and the last cluster is measured.
const setupRuns = 3

// stageTolerance bounds how far the traced stage means may sum from the
// mean latency of the same coordinator-local writes: the rest is the
// client loop's own bookkeeping, and a stage the trace missed shows as a
// larger gap.
const stageTolerance = 0.05

type runner struct {
	w       workload
	seed    int64
	clients int
	dur     time.Duration
}

// sample is the state of every counter a phase diffs.
type sample struct {
	mem   memCounters
	reg   obs.Snapshot
	msgs  int64
	spans map[string]*[4]int64 // kind -> send n, send ns, handler n, handler ns
}

func takeSample(e *env) sample {
	s := sample{mem: readMem(), reg: e.reg.Snapshot(), spans: map[string]*[4]int64{}}
	for _, tr := range e.tracers {
		s.msgs += tr.messages.Load()
		tr.kinds.Range(func(k, v any) bool {
			ks := v.(*kindSpans)
			acc := s.spans[k.(string)]
			if acc == nil {
				acc = new([4]int64)
				s.spans[k.(string)] = acc
			}
			acc[0] += ks.send.n.Load()
			acc[1] += ks.send.ns.Load()
			acc[2] += ks.handler.n.Load()
			acc[3] += ks.handler.ns.Load()
			return true
		})
	}
	return s
}

// window is the length of the slices a steady timed phase is cut into; a
// partition-heal phase is cut into its cycles. The machine's speed changes
// from second to second, so each reported timing is the median over the
// slices of the figure within each slice, which a burst of slowness in a
// few slices does not move.
const window = time.Second

// slice is one window or cycle of a timed phase.
type slice struct {
	lat [nClasses]hist
	cpu time.Duration
	ops int64
}

// phase is one measured stretch of traffic.
type phase struct {
	before, after     sample
	lat               [nClasses]hist
	st                [nClasses]stages
	attempted, failed int64
	slices            []slice
	heals             []float64 // ms from Heal until reconciliation returned
	replicaMS         []float64 // per heal, summed over the reconcile passes
	constraintMS      []float64
	moved             int64 // records pushed, adopted or created by reconciliation
	heapMB            float64
	violations        []string
	scale             float64 // scales the phase's timings to the reference speed
}

func (p *phase) completed() int64 { return p.attempted - p.failed }

// cpuPerOpUS is the median over the slices of CPU per op, at reference
// speed.
func (p *phase) cpuPerOpUS() float64 {
	var xs []float64
	for _, s := range p.slices {
		if s.ops > 0 {
			xs = append(xs, float64(s.cpu)/1e3/float64(s.ops))
		}
	}
	return p.scale * median(xs)
}

// quantileUS is the median over the slices of a latency quantile, at
// reference speed.
func (p *phase) quantileUS(class int, q float64) float64 {
	var xs []float64
	for i := range p.slices {
		if h := &p.slices[i].lat[class]; h.n > 0 {
			xs = append(xs, h.quantileUS(q))
		}
	}
	return p.scale * median(xs)
}

// collect moves the clients' samples into the phase and returns the
// latencies they held.
func (p *phase) collect(cs []*client) [nClasses]hist {
	var lat [nClasses]hist
	for _, c := range cs {
		for k := range c.lat {
			lat[k].merge(&c.lat[k])
			p.st[k].merge(&c.st[k])
		}
		p.attempted += c.attempted
		p.failed += c.failed
		c.reset()
	}
	for k := range lat {
		p.lat[k].merge(&lat[k])
	}
	return lat
}

// setup builds, fills and warms one cluster and returns the seconds that
// took at reference speed, leaving out drawing the schedule, which is the
// benchmark's own work. The machine's speed is measured just before and
// just after.
func (r *runner) setup(traced bool) (*env, []*client, float64, error) {
	scale0 := speedScale()
	start := time.Now()
	e, err := newEnv(r.w.shape, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	built := time.Since(start)
	cs := newClients(e, r.w.gen, r.seed, r.clients)
	start = time.Now()
	var warm phase
	if r.w.cycleOps > 0 {
		err = r.cycle(e, cs, &warm, nil)
	} else {
		drive(e, cs, r.w.warmOps/len(cs), time.Time{}, nil)
		e.settle()
		warm.collect(cs)
	}
	if err == nil && warm.failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d ops failed", warm.failed, warm.attempted)
	}
	if err == nil && len(warm.violations) > 0 {
		err = fmt.Errorf("warm-up: %s", warm.violations[0])
	}
	if err != nil {
		e.stop()
		return nil, nil, 0, err
	}
	took := (built + time.Since(start)).Seconds()
	scale := (scale0 + speedScale()) / 2
	fmt.Printf("info setup_s %.4f raw=%.4f scale=%.4f\n", scale*took, took, scale)
	return e, cs, scale * took, nil
}

// measure runs the timed phase: closed-loop traffic for d, cut into
// windows, or whole partition-heal cycles until d has passed.
func (r *runner) measure(e *env, cs []*client, d time.Duration) (*phase, error) {
	runtime.GC()
	p := &phase{before: takeSample(e)}
	pr := startProbe()
	if r.w.cycleOps > 0 {
		deadline := time.Now().Add(d)
		for len(p.heals) == 0 || time.Now().Before(deadline) {
			if err := r.cycle(e, cs, p, pr); err != nil {
				pr.finish()
				return nil, err
			}
		}
	} else {
		r.windows(e, cs, p, max(int(d/window), 1), pr)
	}
	p.scale = pr.finish()
	p.after = takeSample(e)
	if r.w.cycleOps == 0 {
		p.violations = append(p.violations, r.checkSold(e, cs)...)
	}
	p.heapMB = liveHeapMB()
	return p, nil
}

// windows drives the clients for n windows, sampling the process CPU and
// the completed ops at every window boundary.
func (r *runner) windows(e *env, cs []*client, p *phase, n int, pr *probe) {
	t0 := time.Now()
	for _, c := range cs {
		c.t0, c.windows = t0, make([][nClasses]hist, n)
	}
	done := func() int64 {
		var sum int64
		for _, c := range cs {
			sum += c.done.Load()
		}
		return sum
	}
	// The probe's own CPU is not the workload's.
	cpu := func() time.Duration { return cpuTime() - pr.cpu() }
	cpus, ops := []time.Duration{cpu()}, []int64{done()}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(window)
		defer tick.Stop()
		for len(cpus) <= n {
			select {
			case <-stop:
				return
			case <-tick.C:
				cpus, ops = append(cpus, cpu()), append(ops, done())
			}
		}
	}()
	drive(e, cs, 0, t0.Add(time.Duration(n)*window), pr)
	// Quorum stragglers still in flight are part of the phase's work.
	e.settle()
	close(stop)
	<-sampled
	p.collect(cs)
	p.slices = make([]slice, len(cpus)-1)
	for i := range p.slices {
		p.slices[i].cpu = cpus[i+1] - cpus[i]
		p.slices[i].ops = ops[i+1] - ops[i]
		for _, c := range cs {
			for k := range c.windows[i] {
				p.slices[i].lat[k].merge(&c.windows[i][k])
			}
		}
	}
	for _, c := range cs {
		c.windows = nil
	}
}

// cycle runs one partition-heal cycle: cut n1-n4 from n5-n8, send the
// degraded traffic, heal, reconcile from each node of the first half
// towards the second, then check the invariants. Neither the checks' CPU
// nor the probe's is charged to the cycle.
func (r *runner) cycle(e *env, cs []*client, p *phase, pr *probe) error {
	probeCPU := func() time.Duration {
		if pr == nil {
			return 0
		}
		return pr.cpu()
	}
	cpu0 := cpuTime() - probeCPU()
	ids := make([]transport.NodeID, len(e.nodes))
	for i, n := range e.nodes {
		ids[i] = n.ID
	}
	half := len(ids) / 2
	e.net.Partition(ids[:half], ids[half:])
	drive(e, cs, r.w.cycleOps/len(cs), time.Time{}, pr)
	e.settle()
	before := p.completed()
	lat := p.collect(cs)

	if pr != nil {
		// Heal, reconciliation and checks run without the probe beside them.
		pr.gate.RLock()
		defer pr.gate.RUnlock()
	}
	start := time.Now()
	e.net.Heal()
	var replica, constraint time.Duration
	for _, n := range e.nodes[:half] {
		rep, err := reconcile.Run(context.Background(), n, ids[half:], reconcile.Handlers{})
		if err != nil {
			return fmt.Errorf("reconcile from %s: %w", n.ID, err)
		}
		replica += rep.ReplicaDuration
		constraint += rep.ConstraintDuration
		p.moved += int64(rep.Replica.Pushed + rep.Replica.Adopted + rep.Replica.Created)
	}
	e.settle()
	p.heals = append(p.heals, ms(time.Since(start)))
	p.replicaMS = append(p.replicaMS, ms(replica))
	p.constraintMS = append(p.constraintMS, ms(constraint))
	cpu := cpuTime() - probeCPU() - cpu0
	p.slices = append(p.slices, slice{lat: lat, cpu: cpu, ops: p.completed() - before})

	p.violations = append(p.violations, chaos.CheckConverged(e.cluster, e.ids)...)
	p.violations = append(p.violations, chaos.CheckNoThreats(e.cluster)...)
	p.violations = append(p.violations, chaos.CheckNamingAgreement(e.cluster)...)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// checkSold verifies the steady workloads' end state: every replica of every
// flight agrees, sold equals its initial value plus the committed sales
// minus the committed cancellations, and no flight is overbooked.
func (r *runner) checkSold(e *env, cs []*client) []string {
	out := chaos.CheckConverged(e.cluster, e.ids)
	for f, id := range e.ids {
		want := int64(initialSold)
		for _, c := range cs {
			want += c.delta[f]
		}
		ent, err := e.nodes[e.home[f]].Registry.Get(id)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		if got := ent.GetInt(flight.AttrSold); got != want || got > ent.GetInt(flight.AttrSeats) {
			out = append(out, fmt.Sprintf("%s: sold %d, committed ops give %d, seats %d", id, got, want, ent.GetInt(flight.AttrSeats)))
		}
	}
	return out
}

// headline is the latency class p50_us and p90_us time: reads on
// read-mostly, writes elsewhere (degraded writes on partition-heal).
func (r *runner) headline() int {
	if r.w.readHeadline {
		return classRead
	}
	return classWrite
}

// verdict prints the first violations of a phase and reports whether it
// had none.
func verdict(p *phase) bool {
	for i, v := range p.violations {
		if i == 10 {
			fmt.Printf("check ... %d more\n", len(p.violations)-i)
			break
		}
		fmt.Printf("check FAILED %s\n", v)
	}
	return len(p.violations) == 0
}

// timed is the end-to-end run.
func (r *runner) timed() (outcome, error) {
	var e *env
	var cs []*client
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.stop()
		}
		var d float64
		var err error
		if e, cs, d, err = r.setup(false); err != nil {
			return outcome{}, err
		}
		setups = append(setups, d)
	}
	defer e.stop()
	p, err := r.measure(e, cs, r.dur)
	if err != nil {
		return outcome{}, err
	}
	ok := verdict(p)
	r.info(p)
	return outcome{
		correct: ok, attempted: p.attempted, failed: p.failed,
		metrics: []metric{
			{"setup_s", median(setups), "s"},
			{"cpu_us_per_op", p.cpuPerOpUS(), "us"},
			{"p50_us", p.quantileUS(r.headline(), 0.50), "us"},
			{"p90_us", p.quantileUS(r.headline(), 0.90), "us"},
			{"heap_live_mb", p.heapMB, "MB"},
		},
	}, nil
}

// info prints every end-to-end figure by its own name, with the number of
// slices its median is taken over and the samples in the whole phase.
func (r *runner) info(p *phase) {
	fmt.Printf("info ops attempted=%d failed=%d slices=%d cpu_us_per_op=%.3f\n",
		p.attempted, p.failed, len(p.slices), p.cpuPerOpUS())
	fmt.Printf("info speed scale=%.4f (timings below at reference speed; raw = value/scale)\n", p.scale)
	prefix := ""
	if r.w.cycleOps > 0 {
		prefix = "degraded_"
	}
	for k, name := range []string{"read", "write"} {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Printf("info %s%s_p%.0f_us %.3f whole-phase=%.3f n=%d beyond=%d\n", prefix, name, 100*q,
				p.quantileUS(k, q), p.scale*p.lat[k].quantileUS(q), p.lat[k].n, int64(float64(p.lat[k].n)*(1-q)))
		}
	}
	if len(p.heals) > 0 {
		fmt.Printf("info heal_ms %.3f n=%d cycles of %d ops\n", p.scale*median(p.heals), len(p.heals), r.w.cycleOps)
	}
}

// traced measures the layers: an untraced phase and a traced phase of half
// the run each, on separate clusters, so the tracing overhead shows as the
// difference of their CPU per op.
func (r *runner) traced() (outcome, error) {
	e, cs, _, err := r.setup(false)
	if err != nil {
		return outcome{}, err
	}
	plain, err := r.measure(e, cs, r.dur/2)
	e.stop()
	if err != nil {
		return outcome{}, err
	}

	e, cs, _, err = r.setup(true)
	if err != nil {
		return outcome{}, err
	}
	defer e.stop()
	var wire ioCounters
	var wireWrites int64
	if e.wire {
		if wire, wireWrites, err = r.wireProbe(e, cs); err != nil {
			return outcome{}, err
		}
	}
	if r.w.cycleOps == 0 {
		for _, c := range cs {
			c.staged = true
		}
	}
	p, err := r.measure(e, cs, r.dur/2)
	if err != nil {
		return outcome{}, err
	}
	okPlain, ok := verdict(plain), verdict(p)
	out := r.layers(e, p)
	out = append(out,
		metric{"repository.lookup_ns", p.scale * lookupNS(e), "ns"},
		metric{"wiretransport.bytes_per_write", ratio(wire.wchar, wireWrites), "B"},
		metric{"wiretransport.write_syscalls_per_write", ratio(wire.syscw, wireWrites), "count"},
		metric{"wiretransport.read_syscalls_per_write", ratio(wire.syscr, wireWrites), "count"},
		metric{"trace.overhead_cpu_us_per_op", p.cpuPerOpUS() - plain.cpuPerOpUS(), "us"},
	)
	fmt.Printf("info tracing overhead: traced %.3f us/op - untraced %.3f us/op = %.3f us/op\n",
		p.cpuPerOpUS(), plain.cpuPerOpUS(), p.cpuPerOpUS()-plain.cpuPerOpUS())

	// The stage means of coordinator-local writes must add up to their
	// mean latency.
	w := &p.st[classWrite]
	stageSum := w.meanUS(w.begin + w.invoke + w.prepare + w.commit + w.finish)
	sumRatio := 0.0
	if w.ops > 0 {
		sumRatio = stageSum / p.lat[classWrite].meanUS()
		fmt.Printf("info stage check: begin+invoke+prepare+commit+finish = %.3f us vs mean write latency %.3f us (ratio %.4f, tolerance %.2f)\n",
			stageSum, p.lat[classWrite].meanUS(), sumRatio, stageTolerance)
		if math.Abs(1-sumRatio) > stageTolerance {
			fmt.Printf("check FAILED stage means sum to %.4f of the write latency\n", sumRatio)
			ok = false
		}
	}
	out = append(out, metric{"trace.stage_sum_ratio", sumRatio, "ratio"})
	return outcome{correct: ok && okPlain, attempted: plain.attempted + p.attempted, failed: plain.failed + p.failed, metrics: out}, nil
}

// wireProbe runs a fixed number of writes right after set-up and returns
// what they cost in write-like bytes and syscalls. The set-up and the ops
// are fixed by the seed, so for a given seed these counts repeat exactly.
func (r *runner) wireProbe(e *env, cs []*client) (ioCounters, int64, error) {
	const probeWrites = 2000
	before, err := readIO()
	if err != nil {
		return ioCounters{}, 0, err
	}
	drive(e, cs, probeWrites/len(cs), time.Time{}, nil)
	e.settle()
	after, err := readIO()
	if err != nil {
		return ioCounters{}, 0, err
	}
	var probe phase
	probe.collect(cs)
	if probe.failed > 0 {
		return ioCounters{}, 0, fmt.Errorf("wire probe: %d of %d writes failed", probe.failed, probe.attempted)
	}
	d := ioCounters{wchar: after.wchar - before.wchar, syscr: after.syscr - before.syscr, syscw: after.syscw - before.syscw}
	return d, probe.attempted, nil
}

// lookupNS times the repository lookups the CCM makes for the workload's
// methods, in a side loop on one node after the traffic.
func lookupNS(e *env) float64 {
	const rounds = 20000
	repo := e.nodes[0].Repo
	types := []constraint.Type{constraint.Pre, constraint.Post, constraint.HardInvariant}
	calls := 0
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, m := range methods {
			for _, t := range types {
				repo.LookupAffected(flight.Class, m, t)
				calls++
			}
		}
	}
	return float64(time.Since(start)) / float64(calls)
}

// layers derives the per-layer metrics of a traced phase. Times are at
// reference speed, like the end-to-end ones.
func (r *runner) layers(e *env, p *phase) []metric {
	wall := func(v float64) float64 { return p.scale * v }
	d := diffRegistry(p.before.reg, p.after.reg, e.nodeSet)
	c := d.counters
	ops := p.completed()
	per := func(n int64) float64 { return ratio(n, ops) }
	var st stages
	for k := range p.st {
		st.merge(&p.st[k])
	}
	heals := int64(len(p.heals))
	mem := func(a, b uint64) int64 { return int64(b - a) }
	out := []metric{
		{"node.invoke_tx_us", wall(st.meanUS(st.invoke)), "us"},
		{"repository.searches_per_op", per(c["repository.searches"]), "count"},
		{"repository.cache_hit_ratio", ratio(c["repository.cache_hits"], c["repository.searches"]), "ratio"},
		{"core.validations_per_op", per(c["core.validations"]), "count"},
		{"core.threats_per_op", per(c["core.threats.detected"]), "count"},
		{"tx.begin_us", wall(st.meanUS(st.begin)), "us"},
		{"tx.prepare_us", wall(st.meanUS(st.prepare)), "us"},
		{"tx.commit_us", wall(st.meanUS(st.commit)), "us"},
		{"tx.finish_us", wall(st.meanUS(st.finish)), "us"},
		{"tx.lock_wait_p99_us", wall(st.lockWait.quantileUS(0.99)), "us"},
		{"tx.rollback_ratio", ratio(c["tx.rolled_back"], c["tx.begun"]), "ratio"},
		{"replication.ops_per_batch", ratio(c["replication.batch.size"], c["replication.batch.rounds"]), "count"},
		{"replication.propagation_errors", float64(c["replication.propagation_errors"]), "count"},
		{"replication.conflicts_per_heal", ratio(c["replication.conflicts"], heals), "count"},
		{"group.threshold_wait_p50_us", wall(d.percentileUS("group.multicast.duration", 0.50)), "us"},
		{"group.threshold_wait_p99_us", wall(d.percentileUS("group.multicast.duration", 0.99)), "us"},
		{"group.stragglers_per_round", ratio(c["group.multicast.threshold.stragglers"], c["group.multicast.threshold.rounds"]), "count"},
		{"transport.msgs_per_op", per(p.after.msgs - p.before.msgs), "count"},
		{"persistence.writes_per_op", per(c["persistence.writes"]), "count"},
		{"persistence.reads_per_op", per(c["persistence.reads"]), "count"},
		{"threat.stored_per_op", per(c["threat.stored"]), "count"},
		{"threat.folded_ratio", ratio(c["threat.folded"], c["threat.stored"]+c["threat.folded"]), "ratio"},
		{"reconcile.heal_ms", wall(median(p.heals)), "ms"},
		{"reconcile.replica_ms", wall(median(p.replicaMS)), "ms"},
		{"reconcile.constraint_ms", wall(median(p.constraintMS)), "ms"},
		{"reconcile.records_moved", ratio(p.moved, heals), "count"},
		{"runtime.allocs_per_op", per(mem(p.before.mem.mallocs, p.after.mem.mallocs)), "count"},
		{"runtime.alloc_bytes_per_op", per(mem(p.before.mem.bytes, p.after.mem.bytes)), "B"},
		{"runtime.gc_per_kop", 1000 * per(int64(p.after.mem.gcs-p.before.mem.gcs)), "count"},
	}
	spanMean := func(kind string, i int) float64 {
		a, b := p.after.spans[kind], p.before.spans[kind]
		if a == nil {
			return 0
		}
		var b0 [4]int64
		if b != nil {
			b0 = *b
		}
		return wall(ratio(a[i+1]-b0[i+1], a[i]-b0[i]) / 1e3)
	}
	for _, k := range tracedKinds {
		out = append(out,
			metric{"transport.send_us." + k, spanMean(k, 0), "us"},
			metric{"transport.handler_us." + k, spanMean(k, 2), "us"})
	}
	var wireSend float64
	if e.wire {
		var n, ns int64
		for k, a := range p.after.spans {
			b := p.before.spans[k]
			n += a[0]
			ns += a[1]
			if b != nil {
				n -= b[0]
				ns -= b[1]
			}
		}
		wireSend = wall(ratio(ns, n) / 1e3)
	}
	return append(out, metric{"wiretransport.send_us", wireSend, "us"})
}
