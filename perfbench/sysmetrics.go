package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of every thread
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
	}
}

// processCPU returns the user + system CPU time of every thread of the
// process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID, which the syscall
// package does not name.
const clockThreadCPU = 3

// threadCPU returns the CPU time of the calling OS thread, to the
// nanosecond (getrusage's per-thread figure lags by up to a tick); the
// caller must be locked to its thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return time.Duration(ts.Nano())
}

// cost is the resource use between two readings.
type cost struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func since(u usage) cost {
	now := readUsage()
	return cost{
		wall:    now.wall.Sub(u.wall),
		cpu:     now.cpu - u.cpu,
		mallocs: now.mallocs - u.mallocs,
		bytes:   now.bytes - u.bytes,
		gcs:     now.gcs - u.gcs,
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so the
// next peakRSSMB covers only what ran in between. Where the kernel does not
// allow it, peakRSSMB keeps reporting the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
