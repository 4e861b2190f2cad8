// Command perfbench is the repository's benchmark. It builds an in-process
// DeDiSys cluster of flight-booking nodes for one workload, fills it, drives
// it in a closed loop from one client goroutine per CPU following a schedule
// drawn from the seed, checks that the cluster's final state is correct and
// prints the measured metrics; the last line of its output is one JSON
// object. Timings are medians over one-second slices of the run, scaled to
// a reference machine speed that a probe measures during the run (see
// calibrate.go). With -trace 1 it measures the layers instead, timing each
// at its public boundary. perfbench/run.py builds and runs it:
//
//	python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix against one cluster shape.
type workload struct {
	shape
	gen generator
	// readHeadline makes p50_us and p99_us time reads instead of writes.
	readHeadline bool
	// warmOps is the number of ops each set-up runs after filling, so caches
	// and pools are warm before timing. Partition-heal warms with one cycle.
	warmOps int
	// cycleOps, when set, makes the run a sequence of partition-heal cycles
	// of this many degraded ops each.
	cycleOps int
}

var workloads = map[string]workload{
	"read-mostly": {
		shape:        shape{size: 8, groups: 4, rf: 3, flights: 20000, quorum: true},
		gen:          mix(0.9, 0),
		readHeadline: true,
		warmOps:      40000,
	},
	"write-hot": {
		shape:   shape{size: 8, groups: 4, rf: 3, flights: 20000, quorum: true},
		gen:     writeHot,
		warmOps: 20000,
	},
	"partition-heal": {
		shape:    shape{size: 8, groups: 4, rf: 3, flights: 20000},
		gen:      partitioned,
		cycleOps: 2000,
	},
	"wire-commit": {
		shape:   shape{size: 3, flights: 2000, quorum: true, wire: true},
		gen:     mix(0, 0),
		warmOps: 2000,
	},
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a run prints.
type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
}

func main() {
	name := flag.String("workload", "", "workload: read-mostly, write-hot, partition-heal or wire-commit")
	seed := flag.Int64("seed", 1, "seed of the generated schedule")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 measures the layers instead of the end-to-end metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	clients := runtime.NumCPU()
	fmt.Printf("env workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s clients=%d trace=%d\n",
		*name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients, *trace)

	r := &runner{w: w, seed: *seed, clients: clients, dur: time.Duration(*seconds * float64(time.Second))}
	var out outcome
	var err error
	if *trace == 1 {
		out, err = r.traced()
	} else {
		out, err = r.timed()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// A run that completed reports a failed check through "correct" in its
	// result and still exits 0; a non-zero exit means it could not run.
	printOutcome(out)
}

func printOutcome(out outcome) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	names := make([]string, 0, len(out.metrics))
	for _, m := range out.metrics {
		ms[m.name] = value{m.value, m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-44s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
