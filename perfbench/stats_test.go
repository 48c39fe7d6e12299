package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0},
		{19, 0},
		{20, 50},
		{100, 90},
		{999, 95},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: summarize must sort
	}
	s := summarize(xs)
	if s.N != 1000 || !s.TailOK || s.Top != 99 {
		t.Fatalf("summary %+v: want 1000 samples with a supported p99", s)
	}
	if math.Abs(s.P50-500.5) > 1e-9 {
		t.Errorf("p50 = %v, want 500.5", s.P50)
	}
	if beyond := 1000 - int(math.Ceil(s.P99)) + 1; beyond < minBeyond {
		t.Errorf("p99 %v leaves %d samples beyond, want ≥ %d", s.P99, beyond, minBeyond)
	}
	if short := summarize(make([]float64, 500)); short.TailOK {
		t.Errorf("500 samples must not support a p99: %+v", short)
	}
}

func TestErrorRateCountsAgainstAttempted(t *testing.T) {
	if got := errorRate(100, 5); got != 0.05 {
		t.Errorf("errorRate(100 attempted, 5 failed) = %v, want 0.05 (not 5/95)", got)
	}
	if got := errorRate(0, 0); got != 0 {
		t.Errorf("errorRate with nothing attempted = %v, want 0", got)
	}
}

func TestGoodputCountsFailuresAsMisses(t *testing.T) {
	ops := []outcome{
		{Latency: 2 * time.Millisecond},
		{Latency: 9 * time.Millisecond},
		{Latency: 11 * time.Millisecond},
		// A refused request returns at once; it still misses the limit.
		{Latency: 0, Failed: true},
		{Latency: time.Millisecond, Failed: true},
	}
	if got := goodput(ops, 10*time.Millisecond, time.Second); got != 2 {
		t.Errorf("goodput = %v, want 2 (two successes within the limit per second)", got)
	}
}

func TestTracerSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer()
	tr.begin("parent", -1)
	time.Sleep(2 * time.Millisecond)
	tr.begin("child", -1)
	time.Sleep(5 * time.Millisecond)
	tr.end()
	tr.end()
	parent, child := tr.stat("parent"), tr.stat("child")
	if parent.Count != 1 || child.Count != 1 {
		t.Fatalf("counts parent %d child %d, want 1 each", parent.Count, child.Count)
	}
	if parent.SelfNs != parent.TotalNs-child.TotalNs {
		t.Errorf("parent self %d, want total %d minus child %d", parent.SelfNs, parent.TotalNs, child.TotalNs)
	}
	if child.SelfNs != child.TotalNs {
		t.Errorf("leaf self %d != its duration %d", child.SelfNs, child.TotalNs)
	}
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents %d, %d: want the child to point at the parent", tr.spans[0].Parent, tr.spans[1].Parent)
	}
}

func TestFrameID(t *testing.T) {
	if id, ok := frameID([]byte(`{"id":4711,"method":"stage.process"}`)); !ok || id != 4711 {
		t.Errorf("frameID = %d, %v; want 4711", id, ok)
	}
	if _, ok := frameID([]byte(`{"method":"x"}`)); ok {
		t.Error("frameID accepted a frame without a leading id")
	}
}

func TestBlockMediansIgnoreOneBurst(t *testing.T) {
	xs := make([]float64, 5*blockSize+17) // the incomplete tail is dropped
	for i := range xs {
		xs[i] = float64(i % blockSize)
	}
	for i := 2 * blockSize; i < 3*blockSize; i++ {
		xs[i] += 1000 // one block hit by a stall
	}
	b := blockMedians(xs)
	if b.N != 5 {
		t.Fatalf("%d blocks, want 5", b.N)
	}
	for _, c := range []struct {
		got, q float64
	}{{b.P50, 0.5}, {b.P90, 0.9}, {b.P99, 0.99}} {
		if want := quantile(xs[:blockSize], c.q); c.got != want {
			t.Errorf("q%v = %v, want the undisturbed blocks' %v", c.q, c.got, want)
		}
	}
	if short := blockMedians(xs[:blockSize-1]); short.N != 0 || short.TailOK {
		t.Errorf("a short sample gave %+v, want no blocks", short)
	}
}
