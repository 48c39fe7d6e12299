package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentileCandidates are the tail percentiles a timing may report, highest
// first; highestPercentile picks the first the sample count supports.
var percentileCandidates = []float64{99.99, 99.9, 99, 95, 90, 50}

// highestPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, or 0 when n supports none.
func highestPercentile(n int) float64 {
	for _, p := range percentileCandidates {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// supports reports whether n samples leave at least minBeyond above the
// p-th percentile.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted xs by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timing is a latency distribution summarized the way every timing in the
// benchmark is reported: median, the named tail percentile, and the sample
// count behind both.
type timing struct {
	N   int
	P50 float64
	P90 float64
	P99 float64
	// TailOK is false when fewer than minBeyond samples lie above the 99th
	// percentile, so P99 cannot be reported.
	TailOK bool
	// Top is the highest percentile the sample count supports, TopValue its
	// value.
	Top      float64
	TopValue float64
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) timing {
	sort.Float64s(xs)
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	t.P50 = quantile(xs, 0.5)
	t.P90 = quantile(xs, 0.9)
	t.P99 = quantile(xs, 0.99)
	t.TailOK = supports(len(xs), 99)
	if t.Top = highestPercentile(len(xs)); t.Top > 0 {
		t.TopValue = quantile(xs, t.Top/100)
	}
	return t
}

// setupGroup is how many set-ups are timed between two yardstick samples.
const setupGroup = 8

// timeSetups appends n set-up samples to setups, each in seconds at the
// yardstick's reference speed. Each sample times one build from a
// collected heap, so no build pays for collecting another's garbage; the
// deployment is then torn down untimed. The yardstick is sampled before
// and after every setupGroup builds, and each build's time is scaled by
// the host speed between those samples.
func timeSetups[T any](ys *yardstick, setups []float64, n int, build func() (T, error), teardown func(T)) ([]float64, error) {
	for n > 0 {
		k := min(n, setupGroup)
		n -= k
		var raw []time.Duration
		before := ys.sample()
		for i := 0; i < k; i++ {
			runtime.GC()
			start := time.Now()
			d, err := build()
			if err != nil {
				return setups, err
			}
			raw = append(raw, time.Since(start))
			teardown(d)
		}
		s := between(before, ys.sample())
		for _, d := range raw {
			setups = append(setups, scaled(d, s.wall))
		}
	}
	return setups, nil
}

// setupLine describes the set-up samples behind setup_s: their count and
// quartiles in ms.
func setupLine(setups []float64) string {
	s := append([]float64(nil), setups...)
	sort.Float64s(s)
	return fmt.Sprintf("set-ups timed: %d, quartiles %.4g / %.4g / %.4g ms",
		len(s), quantile(s, 0.25)*1e3, quantile(s, 0.5)*1e3, quantile(s, 0.75)*1e3)
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// errorRate is failed ÷ attempted operations; every failure counts against
// the operations attempted, not the ones that completed.
func errorRate(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// outcome is one attempted operation: its latency, or a failure.
type outcome struct {
	Latency time.Duration
	Failed  bool
}

// goodput counts the operations that completed within limit, per second of
// span. A failed or refused operation misses the limit whatever its
// recorded latency.
func goodput(ops []outcome, limit, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	good := 0
	for _, o := range ops {
		if !o.Failed && o.Latency <= limit {
			good++
		}
	}
	return float64(good) / span.Seconds()
}

// blockSize is the number of consecutive samples blockMedians summarizes
// at a time: the smallest block whose p99 leaves minBeyond samples above.
const blockSize = 100 * minBeyond

// blockMedians splits xs, in arrival order, into consecutive blocks of
// blockSize (dropping an incomplete last block), summarizes each block, and
// returns the median over the blocks of each block's p50, p90 and p99, with
// N set to the number of blocks. A burst of host interference then moves
// only the blocks it falls in.
func blockMedians(xs []float64) timing {
	var p50, p90, p99 []float64
	for start := 0; start+blockSize <= len(xs); start += blockSize {
		b := summarize(append([]float64(nil), xs[start:start+blockSize]...))
		p50, p90, p99 = append(p50, b.P50), append(p90, b.P90), append(p99, b.P99)
	}
	if len(p50) == 0 {
		return timing{}
	}
	return timing{N: len(p50), P50: median(p50), P90: median(p90), P99: median(p99), TailOK: true}
}
