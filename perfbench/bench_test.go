package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// Small versions of the simulated workloads: the same code paths, sized to
// run in well under a second.
var (
	desSmall = func() desConfig {
		c := desDefault
		c.Horizon = 20000 * time.Second
		return c
	}()
	fleetSmall = func() fleetConfig {
		c := fleetDefault
		c.Nodes, c.Epochs, c.Partitioned = 100, 300, 10
		c.PartFrom, c.PartTo = 50*time.Second, 150*time.Second
		return c
	}()
)

// simOutputs runs one small repetition and returns what it simulated.
func simOutputs(t *testing.T, build func(seed int64, tr *tracer) (simRunner, error), seed int64, traced bool) *simRep {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	s, err := build(seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	ys := newTestYardstick(t)
	runSegments(s, segmentsPerRep, ys)
	r := s.result(cost{})
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	return r
}

func TestSimulatedMetricsRepeatPerSeed(t *testing.T) {
	workloads := map[string]func(seed int64, tr *tracer) (simRunner, error){
		"des": func(seed int64, tr *tracer) (simRunner, error) { return buildDES(desSmall, seed, tr) },
		"fleet": func(seed int64, tr *tracer) (simRunner, error) {
			return buildFleet(fleetSmall, seed, tr)
		},
	}
	for name, build := range workloads {
		t.Run(name, func(t *testing.T) {
			a := simOutputs(t, build, 7, false)
			b := simOutputs(t, build, 7, true)
			c := simOutputs(t, build, 8, false)
			if a.digest != b.digest {
				t.Errorf("seed 7 gave digests %s untraced and %s traced", a.digest, b.digest)
			}
			// Power and op counts are simulated in both workloads; des
			// latencies are simulated too, fleet latencies are host epoch
			// times.
			if a.power != b.power || a.ops != b.ops {
				t.Errorf("seed 7 simulated metrics differ: power %v/%v ops %d/%d", a.power, b.power, a.ops, b.ops)
			}
			if a.power == c.power {
				t.Errorf("seeds 7 and 8 gave the same simulated power %v", a.power)
			}
			if name == "des" {
				if a.lat.P99 != b.lat.P99 {
					t.Errorf("seed 7 simulated p99 differs: %v/%v", a.lat.P99, b.lat.P99)
				}
				if a.lat.P99 == c.lat.P99 {
					t.Errorf("seeds 7 and 8 gave the same simulated p99 %v", a.lat.P99)
				}
			}
			if a.digest == c.digest {
				t.Errorf("seeds 7 and 8 gave the same digest %s", a.digest)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the command defaults to %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command runs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command reports %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, command %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command reports %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, m, d)
		}
	}
}

// TestDistTracedRun drives a short dist-sirius run, untraced then traced
// through the relays, and checks its outputs and that the RPC layer was
// measured. Run it with -race: the relays, the issuers and the control tick
// share the tracer.
func TestDistTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the distributed runtime for a few seconds")
	}
	rc := runConfig{seed: 3, seconds: 4 * time.Second, trace: true, traceDir: t.TempDir(), log: io.Discard, ys: newTestYardstick(t)}
	rep, err := runDist(rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%d of %d queries failed", rep.failed, rep.attempted)
	}
	if calls := rep.layer["rpc.calls_per_query"]; calls < 3 {
		t.Errorf("rpc.calls_per_query = %v, want at least one call per stage", calls)
	}
	for _, name := range []string{"rpc.rtt_us_p50", "dist.submit_us_p50", "controlplane.tick_us_p50"} {
		if rep.layer[name] <= 0 {
			t.Errorf("%s = %v, want a measured time", name, rep.layer[name])
		}
	}
}

func newTestYardstick(t *testing.T) *yardstick {
	t.Helper()
	ys, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ys.close)
	return ys
}

// A repetition that ran at half speed took twice the wall time; scaled to
// the reference speed, its segments and ops read as the full-speed ones.
func TestHostTimesScaleBySegmentSpeed(t *testing.T) {
	full := &simRep{opLat: []float64{1, 1, 1, 1}, seg: segTimes{
		wall:  []time.Duration{time.Second, time.Second},
		cpu:   []time.Duration{time.Second, time.Second},
		ops:   []int{2, 4},
		speed: []speed{{1, 1}, {1, 1}},
	}}
	half := &simRep{opLat: []float64{2, 2, 1, 1}, seg: segTimes{
		wall:  []time.Duration{2 * time.Second, time.Second},
		cpu:   []time.Duration{2 * time.Second, time.Second},
		ops:   []int{2, 4},
		speed: []speed{{0.5, 0.5}, {1, 1}},
	}}
	var h hostTimes
	for _, r := range []*simRep{full, half, full} {
		if err := h.add(r); err != nil {
			t.Fatal(err)
		}
	}
	if w, c := total(h.wall), total(h.cpu); w != 2 || c != 2 {
		t.Errorf("scaled wall %v s and CPU %v s, want 2 and 2", w, c)
	}
	for j, l := range opMedians(h.lat) {
		if l != 1 {
			t.Errorf("op %d scaled to %v ms, want 1", j, l)
		}
	}
	if err := h.add(&simRep{opLat: []float64{1}, seg: full.seg}); err == nil {
		t.Error("a repetition with a different op count was accepted")
	}
}

func TestYardstickSpeedIsPositive(t *testing.T) {
	s := newTestYardstick(t).sample()
	if !(s.wall > 0) || !(s.cpu > 0) {
		t.Errorf("yardstick speed %+v, want positive", s)
	}
}

// An op's latency is scaled by the host speed between the samples either
// side of it, or by the nearest sample outside them.
func TestSpeedAtBetweenSamples(t *testing.T) {
	t0 := time.Unix(0, 0)
	samples := []timedSpeed{
		{at: t0.Add(time.Second), speed: speed{wall: 1, cpu: 1}},
		{at: t0.Add(2 * time.Second), speed: speed{wall: 0.25, cpu: 0.25}},
	}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{{0, 1}, {1500 * time.Millisecond, 0.5}, {3 * time.Second, 0.25}} {
		if got := speedAt(samples, t0.Add(c.at)).wall; got != c.want {
			t.Errorf("speed at %v = %v, want %v", c.at, got, c.want)
		}
	}
	if got := speedAt(nil, t0).wall; got != 1 {
		t.Errorf("speed with no samples = %v, want the reference 1", got)
	}
	if got := meanCPUSpeed(samples); got != 0.5 {
		t.Errorf("mean CPU speed = %v, want the geometric mean 0.5", got)
	}
}
