package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a shared virtual machine whose speed changes by a
// third and more from one minute to the next, and every timing of a run
// moves with it. A probe therefore times a fixed batch of the cheapest
// system call every probeEvery during the timed phase, with the clients
// held back so that it runs alone, in the CPU time of its own locked
// thread, so neither time slicing nor steal shows in it. In trials on this
// kind of machine its cost tracked the workloads' cost per op window by
// window (correlation 0.6 to 0.9) better than pointer chasing or map
// lookups did. Reported timings are scaled by referenceSyscall over the
// phase's median cost per call: they are microseconds on a machine whose
// probe reads referenceSyscall, about the median of a 2-vCPU Xeon VM. The
// raw figures are printed beside them.
const (
	probeEvery       = 100 * time.Millisecond
	probeCalls       = 1000
	referenceSyscall = 150 * time.Nanosecond
)

// threadCPU reads the calling thread's CPU clock, which the kernel keeps to
// the nanosecond.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// syscallCost makes calls getppid calls and returns the thread CPU time they
// took.
func syscallCost(calls int) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	for i := 0; i < calls; i++ {
		syscall.Getppid()
	}
	return threadCPU() - start
}

// probe measures the machine's speed during a timed phase. Every unit of
// the benchmark's work (a client operation, a heal) holds gate for reading;
// a measurement takes it for writing.
type probe struct {
	gate  sync.RWMutex
	mu    sync.Mutex
	costs []float64 // ns per call, one per measurement
	spent time.Duration
	stop  chan struct{}
	wg    sync.WaitGroup
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{})}
	p.measure()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.measure()
			}
		}
	}()
	return p
}

func (p *probe) measure() {
	p.gate.Lock()
	d := syscallCost(probeCalls)
	p.gate.Unlock()
	p.mu.Lock()
	p.costs = append(p.costs, float64(d)/probeCalls)
	p.spent += d
	p.mu.Unlock()
}

// cpu is the CPU the measurements have used so far, which is not the
// workload's.
func (p *probe) cpu() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spent
}

// finish stops the probe and returns the factor that scales the timings
// taken meanwhile to the reference speed.
func (p *probe) finish() float64 {
	close(p.stop)
	p.wg.Wait()
	p.measure()
	return float64(referenceSyscall) / median(p.costs)
}

// speedScale measures the reference speed outside a timed phase, for the
// set-up, which runs code that cannot hold the gate.
func speedScale() float64 {
	const calls = 8 * probeCalls
	return float64(referenceSyscall) * calls / float64(syscallCost(calls))
}
