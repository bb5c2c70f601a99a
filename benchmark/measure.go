package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement. N is the sample count behind a timing
// (0 for counts and ratios, where it would say nothing).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// div is a/b with 0 for an empty denominator, so a layer a workload never
// enters reports 0 rather than NaN (which JSON cannot carry).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of an unsorted sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// usage is the process's cumulative CPU time and heap allocation.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
	}
}

// add accumulates what the process used between two readings, the CPU
// time corrected for a host that ran f times slower than the reference.
func (u *usage) add(from, to usage, f float64) {
	u.cpu += corrected(to.cpu-from.cpu, f)
	u.mallocs += to.mallocs - from.mallocs
	u.bytes += to.bytes - from.bytes
}

func (u *usage) merge(v usage) {
	u.cpu += v.cpu
	u.mallocs += v.mallocs
	u.bytes += v.bytes
}

// liveHeapMB is the heap still reachable after two forced collections
// (the second sweeps what the first one's finalizers released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// kernelRefMs is what one run of the reference kernel (kernelFullReps
// repetitions) takes on the 2-core reference box when the host is quiet.
// Every timing the benchmark reports is scaled to a host on which the
// kernel takes exactly this long (see hostClock), so on a quiet reference
// box the scale is 1 and the milliseconds are the wall clock's.
const (
	kernelRefMs    = 12.0
	kernelFullReps = 4
)

// hostClock measures how fast the host is running right now. The box is a
// few cores of a shared host whose speed wanders by a quarter over tens of
// seconds (neighbours, not steal: CPU time per query moves with the wall
// time), which is more than the bounds allow and is not the program's
// doing. So every timed segment is bracketed by two runs of a fixed
// sort + map kernel that touches none of the program under test and
// allocates nothing, and its wall and CPU time are divided by how much
// slower than kernelRefMs the two kernel runs were. A nil *hostClock
// corrects nothing: the traced run and the probes use none.
type hostClock struct {
	reps  int   // repetitions per run; a run's time is scaled to kernelFullReps
	keys  []int // the kernel's buffers, so that it allocates nothing
	seen  map[int]int
	sink  int           // keeps the compiler from dropping the kernel's work
	last  float64       // the latest kernel run, ms
	at    time.Time     // when it ended
	spent time.Duration // wall inside the kernel so far
	runs  []float64     // every kernel run, ms
}

func newHostClock(reps int) *hostClock {
	return &hostClock{reps: reps, keys: make([]int, 1<<15), seen: make(map[int]int, 1<<12)}
}

// tick runs the kernel once and returns its wall time in ms.
func (c *hostClock) tick() float64 {
	if c == nil {
		return kernelRefMs
	}
	start := time.Now()
	x := uint64(88172645463325252)
	for rep := 0; rep < c.reps; rep++ {
		for i := range c.keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.keys[i] = int(x >> 40)
		}
		sort.Ints(c.keys)
		clear(c.seen)
		for _, k := range c.keys {
			c.seen[k&0xfff] += k
		}
		c.sink += len(c.seen) + c.keys[len(c.keys)/2]
	}
	c.at = time.Now()
	wall := c.at.Sub(start)
	c.spent += wall
	c.last = ms(wall) * kernelFullReps / float64(c.reps)
	c.runs = append(c.runs, c.last)
	return c.last
}

// fresh returns the latest kernel run if it ended just now, so that
// back-to-back segments share the run between them, and ticks otherwise.
func (c *hostClock) fresh() float64 {
	if c == nil {
		return kernelRefMs
	}
	if time.Since(c.at) < time.Millisecond {
		return c.last
	}
	return c.tick()
}

// kernelWall is the wall time spent inside the kernel so far.
func (c *hostClock) kernelWall() time.Duration {
	if c == nil {
		return 0
	}
	return c.spent
}

// medianOf runs the kernel reps times and returns the median, for the
// before/after host guard.
func (c *hostClock) medianOf(reps int) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = c.tick()
	}
	return median(xs)
}

// hostSensitivity is how much harder than the kernel the program under
// test is hit when the host slows: the kernel is one thread in the L2
// cache, the program allocates megabytes per query and leans on the
// collector's workers on the other core, so when neighbours make the
// kernel 1.37 times slower the workloads' rounds get 1.55 times slower.
// Fitted over 48 runs of adhoc-replay and ingest-mix taken in quiet, mixed
// and busy half-hours: an exponent of 1.4 halves the spread that an
// exponent of 1 leaves (README.md, "Host correction").
const hostSensitivity = 1.4

// slowdown is how much slower than on the quiet reference box a segment
// between two kernel runs ran.
func slowdown(before, after float64) float64 {
	return math.Pow((before+after)/2/kernelRefMs, hostSensitivity)
}

// corrected scales a wall or CPU time measured while the host ran f times
// slower than the reference.
func corrected(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) / f) }
