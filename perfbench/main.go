// Command perfbench is the repository's benchmark. It runs one workload —
// the discrete-event simulator, the distributed runtime or the fleet
// coordinator — drives it only through the packages' exported APIs, checks
// its outputs, and prints every metric by name and unit. Its last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run wraps each layer boundary in spans and reports the per-layer
// metrics instead. Run it from the repository root:
//
//	bash perfbench/run.sh --workload des-sirius --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runSeconds is the run length BENCHMARK.json gives. Host speed on a shared
// host moves in phases seconds long; a run must span enough of them that
// its medians repeat.
const runSeconds = 30

// runConfig is what every workload receives: the seed its inputs derive
// from and how long to measure.
type runConfig struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	log      io.Writer
	// ys times the host's speed beside every host-timed measurement.
	ys *yardstick
}

// check is one output-correctness assertion.
type check struct {
	name   string
	ok     bool
	detail string
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int64
	checks            []check
	// digest hashes the simulated outputs (empty for wall-clock workloads).
	digest string
	e2e    map[string]float64
	layer  map[string]float64
	// info lines are printed with the metrics (sample counts, percentiles).
	info []string
}

// workloads are run in this order by --workload all.
var workloads = []struct {
	name string
	run  func(runConfig) (*report, error)
}{
	{"des-sirius", runDES},
	{"dist-sirius", runDist},
	{"fleet-1000", runFleet},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "des-sirius, dist-sirius, fleet-1000, or all")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	// Every workload runs on one P. On a small shared host two Ps make each
	// GC cycle and each goroutine hand-off wait on both vCPUs, and the
	// hypervisor descheduling either one then sets the timing: in paired
	// runs of fleet-1000 host_qps ranged 838–2214 op/s with two Ps and
	// 1603–2128 with one, and dist-sirius's wall p99 3–14 ms against
	// 4.8–5.3 ms.
	runtime.GOMAXPROCS(1)
	ys, err := newYardstick()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: mapping the yardstick's arena: %v\n", err)
		return 1
	}
	defer ys.close()
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, traceDir: filepath.Join(".bench_build", "traces"), log: stderr, ys: ys}

	ok := false
	status := 0
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ok = true
		rep, err := w.run(rc)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if !emit(stdout, w.name, rc, rep) {
			status = 1
		}
	}
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	return status
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the human-readable report, then the JSON result line, and
// reports whether every check passed.
func emit(w io.Writer, name string, rc runConfig, rep *report) bool {
	defs, values := endToEnd, rep.e2e
	if rc.trace {
		defs, values = perLayer, rep.layer
	}
	checks := append([]check(nil), rep.checks...)
	res := resultLine{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	fmt.Fprintf(w, "workload %s seed %d seconds %.0f trace %v GOMAXPROCS %d\n", name, rc.seed, rc.seconds.Seconds(), rc.trace, runtime.GOMAXPROCS(0))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !rc.trace && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			checks = append(checks, check{"metric." + d.Name, false, fmt.Sprintf("end-to-end metric is %v, must be positive", v)})
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6g ratio (%d failed of %d attempted)\n", "error_rate",
		errorRate(rep.attempted, rep.failed), rep.failed, rep.attempted)
	for _, line := range rep.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	if rep.digest != "" {
		fmt.Fprintf(w, "digest %s %s\n", name, rep.digest)
	}
	res.Correct = rep.attempted > 0
	for _, c := range checks {
		state := "ok"
		if !c.ok {
			state = "FAILED"
			res.Correct = false
		}
		fmt.Fprintf(w, "check %-6s %s: %s\n", state, c.name, c.detail)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(w, "perfbench: encoding result: %v\n", err)
		return false
	}
	fmt.Fprintln(w, string(line))
	return res.Correct
}

// simRep is one measured repetition of a simulated workload (des or fleet).
type simRep struct {
	cost              cost
	ops               int64 // queries completed (des) or epochs run (fleet)
	attempted, failed int64
	lat               timing // per-op latency in ms
	// opLat is each op's latency in ms, in op order, where it is timed on
	// the host (fleet epochs); nil where it is simulated (des).
	opLat   []float64
	good    int64 // ops within the workload's latency limit
	power   float64
	peakRSS float64 // MB, from the build to the end of the run
	digest  string
	checks  []check
	layer   map[string]float64
	seg     segTimes
}

// simRunner is one built simulated deployment.
type simRunner interface {
	// segment runs the i-th of n consecutive slices of the workload's
	// simulated time; the last one runs it to its end and stops the
	// control loop.
	segment(i, n int)
	// done is the number of ops completed so far.
	done() int
	// stop stops the control loop of a deployment that is not run.
	stop()
	result(cost) *simRep
}

// setupsPerRep is how many set-up samples a simulated workload takes before
// each repetition, so they spread over the run as its repetitions do.
const setupsPerRep = 8

// segmentsPerRep is how many slices of simulated time each repetition is
// timed in, with a yardstick sample before the first and after each: the
// host's fast and slow phases last about a second, a repetition one to
// three.
const segmentsPerRep = 8

// segTimes is one repetition's host time, segment by segment.
type segTimes struct {
	wall, cpu []time.Duration
	ops       []int   // ops completed by the end of each segment
	speed     []speed // the host's speed over each segment
}

// runSegments runs s segment by segment, timing each segment and sampling
// the yardstick before the first and after each.
func runSegments(s simRunner, n int, ys *yardstick) segTimes {
	t := segTimes{}
	prev := ys.sample()
	wall, cpu := time.Now(), processCPU()
	for i := 0; i < n; i++ {
		s.segment(i, n)
		w, c := time.Now(), processCPU()
		t.wall, t.cpu, t.ops = append(t.wall, w.Sub(wall)), append(t.cpu, c-cpu), append(t.ops, s.done())
		next := ys.sample()
		t.speed = append(t.speed, between(prev, next))
		prev = next
		wall, cpu = time.Now(), processCPU()
	}
	return t
}

// hostTimes gathers, over repetitions of one seed, the host time of each
// segment and of each host-timed op, scaled to the yardstick's reference
// speed. Every repetition does the same simulated work in the same order,
// so segment i and op j are the same work in each, and the median over
// repetitions of each is that work's time at the reference speed.
type hostTimes struct {
	wall, cpu [][]float64 // [segment][repetition], seconds
	lat       [][]float64 // [op][repetition], ms
}

func (h *hostTimes) add(r *simRep) error {
	t := r.seg
	if h.wall == nil {
		h.wall, h.cpu = make([][]float64, len(t.wall)), make([][]float64, len(t.wall))
		h.lat = make([][]float64, len(r.opLat))
	}
	if len(t.wall) != len(h.wall) || len(r.opLat) != len(h.lat) {
		return fmt.Errorf("a repetition ran %d segments and %d host-timed ops, the first %d and %d",
			len(t.wall), len(r.opLat), len(h.wall), len(h.lat))
	}
	seg := 0
	for i := range t.wall {
		h.wall[i] = append(h.wall[i], scaled(t.wall[i], t.speed[i].wall))
		h.cpu[i] = append(h.cpu[i], scaled(t.cpu[i], t.speed[i].cpu))
	}
	for j, l := range r.opLat {
		for seg < len(t.ops)-1 && j >= t.ops[seg] {
			seg++
		}
		h.lat[j] = append(h.lat[j], l*t.speed[seg].wall)
	}
	return nil
}

// total is the sum over segments of each segment's median.
func total(segs [][]float64) float64 {
	var sum float64
	for _, xs := range segs {
		sum += median(xs)
	}
	return sum
}

// opMedians is each op's median over repetitions.
func opMedians(ops [][]float64) []float64 {
	out := make([]float64, len(ops))
	for j, xs := range ops {
		out[j] = median(xs)
	}
	return out
}

// runSim measures a simulated workload: it builds and runs fresh
// deployments back to back until the run's time is spent, timing
// setupsPerRep set-up samples before each repetition. A traced run
// alternates untraced and traced repetitions, so both see the same host
// conditions.
//
// Host-timed metrics (setup_s, host_qps, goodput_qps, cpu_us_per_op, and
// fleet-1000's epoch latencies) are stated at the yardstick's reference
// speed: each segment's time, scaled by the host speed the yardstick
// measured around it, then the median over repetitions of each segment.
func runSim(rc runConfig, name string, build func(seed int64, tr *tracer) (simRunner, error)) (*report, error) {
	var setups []float64
	buildUntraced := func() (simRunner, error) { return build(rc.seed, nil) }
	var plain, traced []*simRep
	var plainTimes, tracedTimes hostTimes
	var lastTracer *tracer
	begin := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if rc.trace && i%2 == 1 {
			tr = newTracer()
		}
		var err error
		if setups, err = timeSetups(rc.ys, setups, setupsPerRep, buildUntraced, simRunner.stop); err != nil {
			return nil, err
		}
		// Every repetition starts from a collected heap with its free pages
		// returned to the OS, so where GC cycles fall, and the resident peak
		// they allow, repeat from run to run.
		debug.FreeOSMemory()
		resetPeakRSS()
		s, err := build(rc.seed, tr)
		if err != nil {
			return nil, err
		}
		u := readUsage()
		seg := runSegments(s, segmentsPerRep, rc.ys)
		c, peak := since(u), peakRSSMB()-yardstickMB
		rep := s.result(c)
		rep.seg, rep.peakRSS = seg, peak
		times := &plainTimes
		if tr != nil {
			traced = append(traced, rep)
			lastTracer = tr
			times = &tracedTimes
		} else {
			plain = append(plain, rep)
		}
		if err := times.add(rep); err != nil {
			return nil, err
		}
		rep.opLat = nil // kept in times from here on
		fmt.Fprintf(rc.log, "%s: repetition %d took %.2fs at host speed %.3g, resident peak %.4g MB (traced %v)\n",
			name, i+1, seg.measured(), seg.atReference()/seg.measured(), peak, tr != nil)
		if time.Since(begin) >= rc.seconds && (!rc.trace || len(traced) > 0) {
			break
		}
	}

	rep := &report{attempted: plain[0].attempted, failed: plain[0].failed, digest: plain[0].digest}
	for _, r := range append(append([]*simRep(nil), plain...), traced...) {
		rep.checks = append(rep.checks, r.checks...)
	}
	rep.checks = dedupe(rep.checks)
	same := true
	for _, reps := range [][]*simRep{plain, traced} {
		for _, r := range reps {
			same = same && r.digest == plain[0].digest
		}
	}
	rep.checks = append(rep.checks, check{name + ".digest_repeats", same,
		fmt.Sprintf("%d untraced and %d traced repetitions of one seed give one simulated digest", len(plain), len(traced))})

	perOp := func(reps []*simRep, f func(*simRep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	ops := float64(plain[0].ops)
	wall := total(plainTimes.wall)
	lat := plain[0].lat
	if len(plainTimes.lat) > 0 {
		lat = summarize(opMedians(plainTimes.lat))
	}
	rep.e2e = map[string]float64{
		"setup_s":        median(setups),
		"host_qps":       ops / wall,
		"latency_p50_ms": lat.P50,
		"latency_p90_ms": lat.P90,
		"goodput_qps":    perOp(plain, func(r *simRep) float64 { return float64(r.good) }) / wall,
		"cpu_us_per_op":  total(plainTimes.cpu) * 1e6 / ops,
		"allocs_per_op":  perOp(plain, func(r *simRep) float64 { return float64(r.cost.mallocs) / float64(r.ops) }),
		"peak_rss_mb":    leastPeak(plain),
		"avg_power_w":    perOp(plain, func(r *simRep) float64 { return r.power }),
	}
	if !lat.TailOK {
		rep.checks = append(rep.checks, check{name + ".p99_supported", false,
			fmt.Sprintf("%d samples leave fewer than %d above the 99th percentile", lat.N, minBeyond)})
	}
	raw := perOp(plain, func(r *simRep) float64 { return ops / r.seg.measured() })
	rep.info = append(rep.info,
		fmt.Sprintf("latency over %d ops per repetition: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms, p%g %.4g ms", lat.N, lat.P50, lat.P90, lat.P99, lat.Top, lat.TopValue),
		fmt.Sprintf("repetitions: %d untraced, %d traced, each timed in %d segments", len(plain), len(traced), segmentsPerRep),
		fmt.Sprintf("host op/s: %.6g at the reference speed, %.6g as measured (median over repetitions)", ops/wall, raw),
		setupLine(setups))

	if rc.trace {
		rep.layer = mergeLayers(traced)
		rep.layer["trace.overhead_pct"] = 100 * (total(tracedTimes.cpu)/total(plainTimes.cpu) - 1)
		path := filepath.Join(rc.traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, rc.seed))
		if err := lastTracer.write(path, map[string]any{"workload": name, "seed": rc.seed}); err != nil {
			return nil, err
		}
		rep.info = append(rep.info, "spans written to "+path)
	}
	return rep, nil
}

// leastPeak is the least resident peak over repetitions, in MB. Where GC
// cycles fall moves one repetition's peak widely (fleet-1000: 12.6 to
// 28 MB in one run); the least of them is what the work itself needs.
func leastPeak(reps []*simRep) float64 {
	least := math.Inf(1)
	for _, r := range reps {
		least = math.Min(least, r.peakRSS)
	}
	return least
}

// measured is the repetition's wall time as measured, in seconds, and
// atReference the same at the reference speed; neither counts the
// yardstick's samples.
func (t segTimes) measured() float64 {
	var sum float64
	for _, d := range t.wall {
		sum += d.Seconds()
	}
	return sum
}

func (t segTimes) atReference() float64 {
	var sum float64
	for i, d := range t.wall {
		sum += scaled(d, t.speed[i].wall)
	}
	return sum
}

// mergeLayers takes the per-key median over repetitions.
func mergeLayers(reps []*simRep) map[string]float64 {
	vals := make(map[string][]float64)
	for _, r := range reps {
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// dedupe keeps the first failing instance of each check name, or its first
// instance when every one passed.
func dedupe(cs []check) []check {
	idx := make(map[string]int)
	var out []check
	for _, c := range cs {
		i, seen := idx[c.name]
		switch {
		case !seen:
			idx[c.name] = len(out)
			out = append(out, c)
		case out[i].ok && !c.ok:
			out[i] = c
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func runDES(rc runConfig) (*report, error) {
	return runSim(rc, "des-sirius", func(seed int64, tr *tracer) (simRunner, error) {
		return buildDES(desDefault, seed, tr)
	})
}

func runFleet(rc runConfig) (*report, error) {
	return runSim(rc, "fleet-1000", func(seed int64, tr *tracer) (simRunner, error) {
		return buildFleet(fleetDefault, seed, tr)
	})
}
