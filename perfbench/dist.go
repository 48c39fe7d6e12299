package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/dist"
	"powerchief/internal/loadgen"
	"powerchief/internal/telemetry"
)

// distConfig is the dist-sirius workload: the distributed runtime in one
// process — three Sirius stage services on loopback TCP and a command
// center dispatching one JSON-RPC call per hop — under open-loop Poisson
// load in wall time.
type distConfig struct {
	Rate    float64 // queries per wall second
	Warmup  time.Duration
	Workers int // issuing goroutines
	// TimeScale compresses the modelled service demand: at 1e-5 a Sirius
	// query costs ~0.5 ms of modelled service, so framework cost dominates.
	TimeScale float64
	// Interval is the control period on a wall clock scaled by TimeScale:
	// 5000 virtual seconds are 50 ms of wall time.
	Interval time.Duration
	// Window is the center's statistics window in wall time, four control
	// periods as cmd/cmdcenter sets it.
	Window time.Duration
	Budget cmp.Watts
	// Limit is the wall latency limit goodput counts against.
	Limit time.Duration
	// Setups is how many set-up samples a run takes.
	Setups int
}

var distDefault = distConfig{
	Rate:      500,
	Warmup:    time.Second,
	Workers:   16,
	TimeScale: 1e-5,
	Interval:  5000 * time.Second,
	Window:    200 * time.Millisecond,
	Budget:    13.56,
	Limit:     10 * time.Millisecond,
	Setups:    128,
}

// distDeploy is one running deployment.
type distDeploy struct {
	svcs    []*dist.StageService
	relays  []*relay
	center  *dist.Center
	loop    *controlplane.Loop
	adj     *timedAdjuster
	pc      *core.PowerChief
	queries *telemetry.Tracer

	power    []float64 // modelled draw after each tick
	nonEmpty int       // ticks whose decision actuated something
}

// deployDist brings the deployment up the way cmd/stagesvc and
// cmd/cmdcenter do, in one process. A traced deployment puts a relay in
// front of each stage and keeps every completed query's span tree.
func deployDist(cfg distConfig, a app.App, tr *tracer, capacity int) (*distDeploy, error) {
	d := &distDeploy{}
	var addrs []string
	for _, sp := range a.Stages {
		svc, err := dist.NewStageService(dist.StageOptions{
			Name: sp.Name, Kind: sp.Kind, MemBound: sp.MemBound,
			Instances: 1, Level: cmp.MidLevel, TimeScale: cfg.TimeScale,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.svcs = append(d.svcs, svc)
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		if tr != nil {
			r, err := startRelay(addr, tr)
			if err != nil {
				d.close()
				return nil, err
			}
			d.relays = append(d.relays, r)
			addr = r.addr()
		}
		addrs = append(addrs, addr)
	}
	opts := dist.CenterOptions{}
	if tr != nil {
		d.queries = telemetry.NewTracer(telemetry.TracerOptions{Sample: 1, Capacity: capacity})
		opts.Tracer = d.queries
	}
	var err error
	if d.center, err = dist.NewCenterOptions(cfg.Budget, cfg.Window, addrs, opts); err != nil {
		d.close()
		return nil, err
	}
	d.pc = core.NewPowerChief(core.DefaultConfig())
	d.adj = &timedAdjuster{inner: d.center, tr: tr, name: "controlplane.tick",
		after: func(out core.BoostOutcome, err error) {
			d.power = append(d.power, float64(d.center.Draw()))
			if err == nil && out.Kind != core.BoostNone {
				d.nonEmpty++
			}
		}}
	d.loop, err = controlplane.Start(controlplane.WallClock(cfg.TimeScale), d.adj, controlplane.Options{
		Policy:   &timedPolicy{inner: d.pc, tr: tr, name: "core.policy"},
		Interval: cfg.Interval,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *distDeploy) close() {
	if d.loop != nil {
		d.loop.Stop()
	}
	if d.center != nil {
		d.center.Close()
	}
	for _, r := range d.relays {
		r.close()
	}
	for _, s := range d.svcs {
		s.Close()
	}
}

// opRecord is one operation's timeline, relative to the run's start.
type opRecord struct {
	intended, pickup, done time.Duration
	failed, ran            bool
}

// timedTarget wraps the loadgen target: it times every operation from the
// instant the schedule intended it, so a stall charges its wait to every
// query behind it.
type timedTarget struct {
	inner loadgen.Target
	tr    *tracer
	t0    time.Time
	recs  []opRecord // by op ID - 1; each worker writes only its own ops
}

func (t *timedTarget) Name() string { return t.inner.Name() }

// Prepare implements loadgen.Preparer; Run calls it just before it starts
// its clock, which makes it the latency origin.
func (t *timedTarget) Prepare(ops []*loadgen.Op) error {
	t.recs = make([]opRecord, len(ops))
	t.t0 = time.Now()
	return nil
}

func (t *timedTarget) Do(op *loadgen.Op) error {
	start := time.Now()
	err := t.inner.Do(op)
	end := time.Now()
	t.recs[op.ID-1] = opRecord{intended: op.Intended, pickup: start.Sub(t.t0), done: end.Sub(t.t0), failed: err != nil, ran: true}
	t.tr.leaf("loadgen.do", int64(op.ID), start, end)
	return err
}

func (t *timedTarget) Close() error { return nil }

// distRun is one measured load run against a deployment.
type distRun struct {
	res    *loadgen.Result
	cost   cost
	recs   []opRecord // post-warmup
	span   time.Duration
	scale  float64 // stage time scale: wall seconds per virtual second
	checks []check
	layer  map[string]float64
	dep    *distDeploy
	// t0 is the origin of the records' times; samples are the host's
	// speed sampled during the run; ownCPU is the process CPU time less
	// the samples'.
	t0      time.Time
	samples []timedSpeed
	ownCPU  time.Duration
}

func loadDist(cfg distConfig, a app.App, d *distDeploy, seed int64, length time.Duration, tr *tracer, ys *yardstick) (*distRun, error) {
	target := &timedTarget{inner: loadgen.NewDistTarget(d.center), tr: tr}
	branches := []int{1, 1, 1}
	var draws int64
	u := readUsage()
	sampler := startSampler(ys)
	res, err := loadgen.Run(target, loadgen.Options{
		Schedule: loadgen.Poisson{QPS: cfg.Rate, Seed: seed},
		Duration: length,
		Warmup:   cfg.Warmup,
		Workers:  cfg.Workers,
		Seed:     seed,
		// Draws run on Run's goroutine while the control tick nests spans
		// on its own, so they are recorded as leaves.
		DrawWork: func(r *rand.Rand) [][]time.Duration {
			draws++
			start := time.Now()
			w := a.DrawWork(r, branches)
			tr.leaf("app.draw", draws, start, time.Now())
			return w
		},
	})
	samples, sampled := sampler.finish()
	if err != nil {
		return nil, err
	}
	c := since(u)
	// Stop the control loop before reading what its goroutine wrote.
	d.loop.Stop()
	run := &distRun{res: res, cost: c, span: length - cfg.Warmup, scale: cfg.TimeScale, dep: d,
		t0: target.t0, samples: samples, ownCPU: c.cpu - sampled}
	ran := 0
	for _, r := range target.recs {
		if r.ran {
			ran++
		}
		if r.intended >= cfg.Warmup {
			run.recs = append(run.recs, r)
		}
	}
	sub, done := d.center.Counts()
	tickErrs, lastErr := d.loop.Errors()
	run.checks = []check{
		{"dist.issued_equals_completed_errors_trimmed", res.Issued == res.Completed+res.Errors+res.Trimmed,
			fmt.Sprintf("issued %d = completed %d + errors %d + trimmed %d", res.Issued, res.Completed, res.Errors, res.Trimmed)},
		{"dist.every_issued_op_ran", uint64(ran) == res.Issued && len(target.recs) == int(res.Issued),
			fmt.Sprintf("%d of %d scheduled ops reached the target, %d issued", ran, len(target.recs), res.Issued)},
		{"dist.center_counts_agree", sub == res.Issued && done == res.Issued-res.Errors,
			fmt.Sprintf("center admitted %d and completed %d of %d issued (%d errors)", sub, done, res.Issued, res.Errors)},
		{"dist.no_failed_tick", tickErrs == 0, fmt.Sprintf("%d failed control ticks (last: %v)", tickErrs, lastErr)},
	}
	if tr != nil {
		run.layer = run.layers(tr)
	}
	return run, nil
}

// latencies returns the post-warmup wall latencies of successful ops, from
// intended send to completion, in ms: as measured, and scaled to the
// yardstick's reference speed by the host speed around each op's
// completion.
func (r *distRun) latencies() (measured, atReference []float64) {
	for _, o := range r.recs {
		if o.failed {
			continue
		}
		l := float64(o.done-o.intended) / 1e6
		measured = append(measured, l)
		atReference = append(atReference, l*speedAt(r.samples, r.t0.Add(o.done)).wall)
	}
	return measured, atReference
}

func (r *distRun) outcomes() []outcome {
	out := make([]outcome, len(r.recs))
	for i, o := range r.recs {
		out[i] = outcome{Latency: o.done - o.intended, Failed: o.failed}
	}
	return out
}

// cpuPerOp is the process's CPU time per query at the yardstick's
// reference speed, in µs.
func (r *distRun) cpuPerOp() float64 {
	return scaled(r.ownCPU, meanCPUSpeed(r.samples)) * 1e6 / float64(r.res.Issued)
}

func (r *distRun) layers(tr *tracer) map[string]float64 {
	d := r.dep
	issued := float64(r.res.Issued)
	m := map[string]float64{
		"runtime.bytes_per_op":      float64(r.cost.bytes) / issued,
		"runtime.gc_cycles":         float64(r.cost.gcs),
		"app.draw_us":               tr.meanUs("app.draw"),
		"controlplane.tick_us_p50":  tr.stat("controlplane.tick").percentile(0.5) / 1e3,
		"controlplane.tick_us_p99":  tr.stat("controlplane.tick").percentile(0.99) / 1e3,
		"controlplane.ticks_per_op": float64(d.adj.ticks) / issued,
		"core.plan_nonempty_frac":   float64(d.nonEmpty) / math.Max(1, float64(d.adj.ticks)),
		"core.withdraws":            float64(d.pc.Withdrawn),
		"dist.submit_us_p50":        tr.stat("loadgen.do").percentile(0.5) / 1e3,
		"rpc.rtt_us_p50":            tr.stat("rpc.call").percentile(0.5) / 1e3,
		"rpc.rtt_us_p99":            tr.stat("rpc.call").percentile(0.99) / 1e3,
	}
	boosts := d.loop.Boosts()
	m["core.boosts.freq"] = float64(boosts[core.BoostFrequency])
	m["core.boosts.inst"] = float64(boosts[core.BoostInstance])
	var calls, bytes int64
	for _, rl := range d.relays {
		calls += rl.calls.Load()
		bytes += rl.bytes.Load()
	}
	m["rpc.calls_per_query"] = float64(calls) / issued
	m["rpc.bytes_per_query"] = float64(bytes) / issued

	// Stage records carry the stages' virtual time; TimeScale converts
	// them to the wall time the center measures latency in.
	scale := r.scale
	var overhead []float64
	for _, qt := range d.queries.Traces() {
		overhead = append(overhead, (float64(qt.Latency)-float64(qt.SpanTotal())*scale)/1e3)
	}
	m["dist.overhead_us_p50"] = summarize(overhead).P50

	var late []float64
	for _, o := range r.recs {
		late = append(late, float64(o.pickup-o.intended)/1e6)
	}
	m["loadgen.gen_late_ms_p99"] = summarize(late).P99

	agg := d.center.Aggregator()
	for _, st := range d.center.Stages() {
		var q, s time.Duration
		n := 0
		for _, in := range st.Instances() {
			if iq, is, ok := agg.InstStats(in.Name()); ok {
				q, s, n = q+iq, s+is, n+1
			}
		}
		if n > 0 {
			m["live."+st.Name()+".queue_ms_mean"] = float64(q) * scale / float64(n) / 1e6
			m["live."+st.Name()+".serve_ms_mean"] = float64(s) * scale / float64(n) / 1e6
		}
	}
	return m
}

// runDist measures the distributed runtime: it drives one deployment for
// the run's length and takes Setups set-up samples around it. A traced run
// then drives a traced deployment for the same length, for the per-layer
// metrics and the tracing overhead.
func runDist(rc runConfig) (*report, error) {
	cfg := distDefault
	a := app.Sirius()
	if rc.seconds <= cfg.Warmup {
		return nil, fmt.Errorf("dist-sirius needs more than %v of run", cfg.Warmup)
	}
	capacity := int(cfg.Rate*rc.seconds.Seconds()*1.2) + 1024
	// Half the set-up samples are taken before the measured run and half
	// after it, so they bracket the host conditions the run saw.
	build := func() (*distDeploy, error) { return deployDist(cfg, a, nil, capacity) }
	teardown := func(d *distDeploy) { d.close() }
	setups, err := timeSetups(rc.ys, nil, cfg.Setups/2, build, teardown)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // as for the simulated workloads
	resetPeakRSS()
	d, err := build()
	if err != nil {
		return nil, err
	}
	plain, err := loadDist(cfg, a, d, rc.seed, rc.seconds, nil, rc.ys)
	peakRSS := peakRSSMB() - yardstickMB
	d.close()
	if err != nil {
		return nil, err
	}
	if setups, err = timeSetups(rc.ys, setups, cfg.Setups-cfg.Setups/2, build, teardown); err != nil {
		return nil, err
	}

	rep := &report{attempted: int64(plain.res.Issued), failed: int64(plain.res.Errors), checks: plain.checks}
	// Wall latency is reported per block of consecutive queries, the median
	// over blocks, so a burst of host interference moves only its blocks.
	measured, xs := plain.latencies()
	blocks := blockMedians(xs)
	lat := summarize(xs)
	asMeasured := blockMedians(measured)
	if !blocks.TailOK {
		rep.checks = append(rep.checks, check{"dist.p99_supported", false,
			fmt.Sprintf("%d samples make no block of %d", lat.N, blockSize)})
	}
	var power float64
	for _, p := range d.power {
		power += p
	}
	rep.e2e = map[string]float64{
		"setup_s":        median(setups),
		"host_qps":       float64(plain.res.Completed) / plain.span.Seconds(),
		"latency_p50_ms": blocks.P50,
		"latency_p90_ms": blocks.P90,
		"goodput_qps":    goodput(plain.outcomes(), cfg.Limit, plain.span),
		"cpu_us_per_op":  plain.cpuPerOp(),
		"allocs_per_op":  float64(plain.cost.mallocs) / float64(plain.res.Issued),
		"peak_rss_mb":    peakRSS,
		"avg_power_w":    power / math.Max(1, float64(len(d.power))),
	}
	rep.info = append(rep.info,
		fmt.Sprintf("open loop: Poisson %.0f q/s, %d issuers, %v measured after %v warm-up", cfg.Rate, cfg.Workers, plain.span, cfg.Warmup),
		fmt.Sprintf("host CPU speed over the run %.3g of the reference (%d samples); CPU per query %.4g us as measured",
			meanCPUSpeed(plain.samples), len(plain.samples), float64(plain.ownCPU)/1e3/float64(plain.res.Issued)),
		fmt.Sprintf("latency at the reference speed, median over %d blocks of %d queries: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms", blocks.N, blockSize, blocks.P50, blocks.P90, blocks.P99),
		fmt.Sprintf("latency as measured, median over the blocks: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms", asMeasured.P50, asMeasured.P90, asMeasured.P99),
		fmt.Sprintf("latency at the reference speed over all %d queries: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms, p%g %.4g ms", lat.N, lat.P50, lat.P90, lat.P99, lat.Top, lat.TopValue),
		setupLine(setups))

	if rc.trace {
		tr := newTracer()
		td, err := deployDist(cfg, a, tr, capacity)
		if err != nil {
			return nil, err
		}
		traced, err := loadDist(cfg, a, td, rc.seed, rc.seconds, tr, rc.ys)
		td.close()
		if err != nil {
			return nil, err
		}
		rep.checks = append(rep.checks, traced.checks...)
		rep.checks = dedupe(rep.checks)
		rep.layer = traced.layer
		rep.layer["trace.overhead_pct"] = 100 * (traced.cpuPerOp()/plain.cpuPerOp() - 1)
		path := filepath.Join(rc.traceDir, fmt.Sprintf("dist-sirius-seed%d.jsonl", rc.seed))
		if err := tr.write(path, map[string]any{"workload": "dist-sirius", "seed": rc.seed}); err != nil {
			return nil, err
		}
		rep.info = append(rep.info, "spans written to "+path)
	}
	sort.SliceStable(rep.checks, func(i, j int) bool { return rep.checks[i].name < rep.checks[j].name })
	return rep, nil
}
