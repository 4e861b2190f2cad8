package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram: below 128ns every nanosecond has
// its own bucket, above it each power of two is split into 128 buckets, so
// a quantile is exact to within 1/128 (0.8%) of its value. It has fixed
// size, so recording millions of samples neither allocates nor grows the
// heap the benchmark reports.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	sum    int64 // nanoseconds
}

const (
	histSubBits = 7
	histBuckets = 40 << histSubBits // covers up to 2^39 ns, about 9 minutes
)

func histIndex(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	i := (shift+1)<<histSubBits + int(v>>uint(shift)) - 1<<histSubBits
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histLower is the smallest value that falls in bucket i, and histWidth the
// number of values it covers.
func histLower(i int) uint64 {
	if i < 1<<histSubBits {
		return uint64(i)
	}
	shift := i>>histSubBits - 1
	return uint64(i&(1<<histSubBits-1)+1<<histSubBits) << uint(shift)
}

func histWidth(i int) uint64 {
	if i < 1<<histSubBits {
		return 1
	}
	return 1 << uint(i>>histSubBits-1)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
	h.sum += int64(d)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantileUS returns the q-quantile in microseconds, interpolated within its
// bucket; 0 without samples.
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+int64(c) >= rank {
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return (float64(histLower(i)) + frac*float64(histWidth(i))) / 1e3
		}
		cum += int64(c)
	}
	return 0
}

func (h *hist) meanUS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / 1e3
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ioCounters is the part of /proc/self/io the wire layer moves: bytes
// passed to write-like calls and the number of read and write syscalls.
type ioCounters struct {
	wchar, syscr, syscw int64
}

func readIO() (ioCounters, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return ioCounters{}, err
	}
	defer f.Close()
	var c ioCounters
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return ioCounters{}, fmt.Errorf("/proc/self/io %s: %w", name, err)
		}
		switch name {
		case "wchar":
			c.wchar = v
		case "syscr":
			c.syscr = v
		case "syscw":
			c.syscw = v
		}
	}
	return c, sc.Err()
}

// memCounters are the Go runtime's cumulative allocation and GC counts.
type memCounters struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
