package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// yardstick is a fixed reference computation that never changes with the
// program under test: it builds and sums binary trees of 32-byte nodes in
// an arena of its own. Timed right before and after each timed slice of a
// workload, it tells how fast the host ran this kind of code at that
// moment, so host times can be stated at one reference speed.
//
// A shared host runs the benchmark in fast and slow phases, the slow ones
// near half speed, lasting from a second to minutes. A whole 30-s run can
// fall in a slow phase, so neither a median nor a best time over the run
// repeats from run to run. Tree building, with its dependent loads and
// stores over a few MiB and its call-heavy recursion, slows in those
// phases about as much as the simulators do: on a 2-vCPU host a
// des-sirius repetition's wall time, scaled by the yardstick's rate around
// it, spread about 5 % across runs where the raw time spread 33 %.
//
// The arena is mapped outside the Go heap and holds no pointers, so the
// yardstick neither triggers garbage collection nor moves the heap goal
// the program under test is paced by.
type yardstick struct {
	arena []uint64
	bump  int
	sink  uint64
}

const (
	// yardstickBytes sizes the arena.
	yardstickBytes = 4 << 20
	// yardstickRef is the reference rate, trees per second, that scaled
	// host times are stated at: near what a 2-vCPU Xeon host gave in its
	// fast phases.
	yardstickRef = 60000
	// yardstickSample is how long one rate sample runs.
	yardstickSample = 10 * time.Millisecond
)

// yardstickMB is the arena's resident size in MB, which peak_rss_mb leaves
// out.
const yardstickMB = float64(yardstickBytes) / (1 << 20)

func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, yardstickBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	y := &yardstick{arena: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), yardstickBytes/8)}
	// Touch every page now, so the arena is resident before any peak is
	// read and no sample pays for faulting it in.
	for i := range y.arena {
		y.arena[i] = 0
	}
	return y, nil
}

func (y *yardstick) close() {
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&y.arena[0])), yardstickBytes)) // nothing to do on failure at exit
}

// build writes a complete tree of the given depth and returns its root.
func (y *yardstick) build(depth int) int {
	if y.bump+4 > len(y.arena) {
		y.bump = 0
	}
	i := y.bump
	y.bump += 4
	if depth == 0 {
		y.arena[i], y.arena[i+1], y.arena[i+2] = 0, 0, 1
		return i
	}
	l := y.build(depth - 1)
	r := y.build(depth - 1)
	y.arena[i], y.arena[i+1], y.arena[i+2] = uint64(l), uint64(r), uint64(depth)
	return i
}

func (y *yardstick) sum(i int) uint64 {
	if y.arena[i] == 0 && y.arena[i+1] == 0 {
		return y.arena[i+2]
	}
	return y.arena[i+2] + y.sum(int(y.arena[i])) + y.sum(int(y.arena[i+1]))
}

// speed is the host's speed at one moment, as the yardstick's rate over
// its reference rate: 0.5 means code ran at half the reference speed.
type speed struct{ wall, cpu float64 }

// sample builds and sums trees for at least yardstickSample and returns
// the speed in wall time and in process CPU time.
func (y *yardstick) sample() speed { return y.sampleFor(yardstickSample, processCPU) }

// sampleFor builds and sums trees for at least d and returns the speed in
// wall time and in the CPU time cpuClock reads.
func (y *yardstick) sampleFor(d time.Duration, cpuClock func() time.Duration) speed {
	wall, cpu := time.Now(), cpuClock()
	n := 0
	for {
		y.sink += y.sum(y.build(10))
		n++
		if el := time.Since(wall); el >= d {
			c := cpuClock() - cpu
			return speed{
				wall: float64(n) / el.Seconds() / yardstickRef,
				cpu:  float64(n) / math.Max(c.Seconds(), 1e-6) / yardstickRef,
			}
		}
	}
}

// between is the speed over a slice of work timed between samples a and
// b: their geometric mean.
func between(a, b speed) speed {
	return speed{wall: math.Sqrt(a.wall * b.wall), cpu: math.Sqrt(a.cpu * b.cpu)}
}

// scaled returns d as it would have taken at the reference speed.
func scaled(d time.Duration, s float64) float64 { return d.Seconds() * s }

// speedSampler samples the yardstick in the background while an open-loop
// run goes on: a short sample every period, on an OS thread of its own so
// that the thread's CPU time is the yardstick's alone and can be taken out
// of the process's. With one P, each sample holds up the run's goroutines
// for its length; at 2 ms every 250 ms that is under 1 % of the time.
type speedSampler struct {
	ys      *yardstick
	stop    chan struct{}
	done    chan struct{}
	samples []timedSpeed
	cpu     time.Duration // CPU time the samples took
}

// timedSpeed is one sample of the host's speed and when it ended.
type timedSpeed struct {
	at time.Time
	speed
}

const (
	samplerPeriod = 250 * time.Millisecond
	samplerLength = 2 * time.Millisecond
)

func startSampler(ys *yardstick) *speedSampler {
	s := &speedSampler{ys: ys, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *speedSampler) run() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := time.NewTicker(samplerPeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			start := threadCPU()
			sp := s.ys.sampleFor(samplerLength, threadCPU)
			s.cpu += threadCPU() - start
			s.samples = append(s.samples, timedSpeed{at: time.Now(), speed: sp})
		}
	}
}

// finish stops the sampler and returns its samples, in time order, and
// the CPU time they took.
func (s *speedSampler) finish() ([]timedSpeed, time.Duration) {
	close(s.stop)
	<-s.done
	return s.samples, s.cpu
}

// meanCPUSpeed is the geometric mean CPU speed over samples, 1 if there
// are none.
func meanCPUSpeed(samples []timedSpeed) float64 {
	if len(samples) == 0 {
		return 1
	}
	var logs float64
	for _, s := range samples {
		logs += math.Log(s.cpu)
	}
	return math.Exp(logs / float64(len(samples)))
}

// speedAt is the host's speed at t: between the samples either side of
// it, or the nearest sample before the first or after the last; the
// reference speed if there are none.
func speedAt(samples []timedSpeed, t time.Time) speed {
	i := sort.Search(len(samples), func(i int) bool { return !samples[i].at.Before(t) })
	switch {
	case len(samples) == 0:
		return speed{wall: 1, cpu: 1}
	case i == 0:
		return samples[0].speed
	case i == len(samples):
		return samples[i-1].speed
	}
	return between(samples[i-1].speed, samples[i].speed)
}
