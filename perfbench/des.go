package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/replay"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/workload"
)

// desConfig is the des-sirius workload: the paper's Table 2 mitigation
// setup (Sirius, one instance per stage at 1.8 GHz, 13.56 W, PowerChief
// every 25 s) under open-loop Poisson load, in virtual time.
type desConfig struct {
	Rate     float64       // arrivals per virtual second
	Horizon  time.Duration // generation horizon; the run then drains
	Interval time.Duration // control and sampling period
	Budget   cmp.Watts
	Cores    int
	// Limit is the latency limit goodput counts against: the 2 s Sirius
	// QoS target of the paper's Figure 13.
	Limit time.Duration
}

var desDefault = desConfig{
	Rate:     1.5,
	Horizon:  200000 * time.Second,
	Interval: 25 * time.Second,
	Budget:   13.56,
	Cores:    16,
	Limit:    2 * time.Second,
}

// desSim is one built DES deployment, ready to run.
type desSim struct {
	cfg  desConfig
	tr   *tracer
	eng  *sim.Engine
	chip *cmp.Chip
	sys  *stage.System
	gen  *workload.Generator
	loop *controlplane.Loop
	pc   *core.PowerChief
	rec  *replay.Recorder
	tap  *countingTap
	adj  *timedAdjuster

	lat        []time.Duration // simulated latency per completion
	seen       []bool          // completed query IDs
	duplicates int
	power      []float64 // chip draw at each sample
	overBudget int
	powerInt   float64 // watt-seconds
	lastSample time.Duration
	maxInst    int

	// Per-stage simulated queueing and serving from the carried records
	// (traced runs only).
	queue, serve map[string]time.Duration
	visits       map[string]int
}

// buildDES constructs the deployment the way the experiment harness does,
// with the benchmark's wrappers at each layer boundary.
func buildDES(cfg desConfig, seed int64, tr *tracer) (*desSim, error) {
	a := app.Sirius()
	instances := make([]int, len(a.Stages))
	for i := range instances {
		instances[i] = 1
	}
	specs, err := a.Specs(instances, cmp.MidLevel)
	if err != nil {
		return nil, err
	}
	d := &desSim{cfg: cfg, tr: tr, eng: sim.NewEngine()}
	d.chip = cmp.NewChip(cfg.Cores, cmp.DefaultModel(), cfg.Budget)
	if d.sys, err = stage.NewSystem(d.eng, d.chip, specs); err != nil {
		return nil, err
	}
	if tr != nil {
		d.queue = make(map[string]time.Duration)
		d.serve = make(map[string]time.Duration)
		d.visits = make(map[string]int)
	}

	agg := core.NewAggregator(cfg.Interval, d.eng.Now)
	d.sys.OnComplete(func(q *query.Query) {
		tr.begin("core.ingest", int64(q.ID))
		agg.Ingest(q)
		tr.end()
		d.complete(q)
	})

	var draws int64
	branches := append([]int(nil), instances...)
	draw := func(r *rand.Rand) [][]time.Duration {
		draws++
		tr.begin("app.draw", draws)
		w := a.DrawWork(r, branches)
		tr.end()
		return w
	}
	d.gen = workload.NewGenerator(d.eng, d.sys, workload.Constant(cfg.Rate), draw,
		rand.New(rand.NewSource(seed)), cfg.Horizon)
	d.gen.Start()

	d.pc = core.NewPowerChief(core.DefaultConfig())
	d.rec = replay.NewRecorder(replay.Header{Scenario: "des-sirius", Seed: seed, Policy: d.pc.Name()}, 0)
	d.tap = &countingTap{inner: d.rec}
	d.adj = &timedAdjuster{
		inner: controlplane.NewAdjuster(core.NewDESView(d.sys), agg),
		tr:    tr,
		name:  "controlplane.tick",
	}
	d.loop, err = controlplane.Start(controlplane.SimClock(d.eng), d.adj, controlplane.Options{
		Policy:         &timedPolicy{inner: d.pc, tr: tr, name: "core.policy"},
		Interval:       cfg.Interval,
		SampleInterval: cfg.Interval,
		OnSample:       d.sample,
		Tap:            d.tap,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (d *desSim) complete(q *query.Query) {
	d.lat = append(d.lat, q.Latency())
	if id := int(q.ID); id < len(d.seen) {
		if d.seen[id] {
			d.duplicates++
		}
		d.seen[id] = true
	}
	if d.tr != nil {
		for _, r := range q.Records {
			d.queue[r.Stage] += r.Queuing()
			d.serve[r.Stage] += r.Serving()
			d.visits[r.Stage]++
		}
	}
}

func (d *desSim) sample(now time.Duration) {
	draw := float64(d.chip.Draw())
	if draw > float64(d.chip.Budget())+1e-9 {
		d.overBudget++
	}
	d.powerInt += draw * (now - d.lastSample).Seconds()
	d.lastSample = now
	d.power = append(d.power, draw)
	if d.tr != nil {
		n := 0
		for _, st := range d.sys.Stages() {
			n += len(st.Active())
		}
		if n > d.maxInst {
			d.maxInst = n
		}
	}
}

// segment runs the i-th of n equal slices of the generation horizon. The
// last one then drains for up to one more horizon, as the harness does,
// and stops the control loop.
func (d *desSim) segment(i, n int) {
	if i == 0 {
		// The benchmark's own per-query records are sized here, not in the
		// timed set-up, and never grow during the run.
		expect := int(d.cfg.Rate*d.cfg.Horizon.Seconds()*1.1) + 1024
		d.lat = make([]time.Duration, 0, expect)
		d.seen = make([]bool, expect)
		d.power = make([]float64, 0, int(2*d.cfg.Horizon/d.cfg.Interval)+2)
		d.tr.begin("sim.run", -1)
	}
	d.eng.RunUntil(d.cfg.Horizon * time.Duration(i+1) / time.Duration(n))
	if i < n-1 {
		return
	}
	deadline := 2 * d.cfg.Horizon
	for d.eng.Now() < deadline && !d.sys.Drain() {
		step := d.cfg.Interval
		if d.eng.Now()+step > deadline {
			step = deadline - d.eng.Now()
		}
		d.eng.RunUntil(d.eng.Now() + step)
	}
	d.tr.end()
	d.stop()
}

func (d *desSim) stop() { d.loop.Stop() }

func (d *desSim) done() int { return len(d.lat) }

func (d *desSim) result(c cost) *simRep {
	done := int64(len(d.lat))
	issued := d.gen.Issued()
	r := &simRep{cost: c, ops: done, attempted: int64(issued), failed: int64(issued) - done}
	sorted := append([]time.Duration(nil), d.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	r.lat = summarize(durationsMs(sorted))
	for _, l := range sorted {
		if l <= d.cfg.Limit {
			r.good++
		}
	}
	if d.lastSample > 0 {
		r.power = d.powerInt / d.lastSample.Seconds()
	}
	boosts := d.loop.Boosts()
	r.digest = desDigest(sorted, d.power, boosts, d.pc.Withdrawn)

	lost := 0
	for id := 1; id <= int(issued) && id < len(d.seen); id++ {
		if !d.seen[id] {
			lost++
		}
	}
	inflight := d.sys.InFlight()
	r.checks = []check{
		{"des.issued_equals_submitted", issued == d.sys.Submitted(),
			fmt.Sprintf("generator issued %d, system admitted %d", issued, d.sys.Submitted())},
		{"des.submitted_equals_completed_plus_inflight", issued == uint64(done)+inflight && uint64(lost) == inflight,
			fmt.Sprintf("issued %d = completed %d + in flight %d (IDs never completed: %d)", issued, done, inflight, lost)},
		{"des.no_duplicate_completion", d.duplicates == 0, fmt.Sprintf("%d queries completed twice", d.duplicates)},
		{"des.draw_within_budget", d.overBudget == 0 && len(d.power) > 0,
			fmt.Sprintf("%d of %d samples over the %.2f W budget", d.overBudget, len(d.power), float64(d.chip.Budget()))},
	}
	if err := d.chip.CheckInvariant(); err != nil {
		r.checks = append(r.checks, check{"des.chip_invariant", false, err.Error()})
	}
	if d.tr != nil {
		r.layer = d.layers(r, boosts)
	}
	return r
}

func (d *desSim) layers(r *simRep, boosts map[core.BoostKind]int) map[string]float64 {
	tr := d.tr
	done := float64(r.ops)
	m := map[string]float64{
		"sim.events_per_op":         float64(d.eng.Fired()) / done,
		"sim.self_s":                float64(tr.self("sim.run")) / 1e9,
		"runtime.bytes_per_op":      float64(r.cost.bytes) / done,
		"runtime.gc_cycles":         float64(r.cost.gcs),
		"stage.instances_max":       float64(d.maxInst),
		"app.draw_us":               tr.meanUs("app.draw"),
		"core.ingest_ns_p50":        tr.stat("core.ingest").percentile(0.5),
		"core.ingest_ns_p99":        tr.stat("core.ingest").percentile(0.99),
		"controlplane.tick_us_p50":  tr.stat("controlplane.tick").percentile(0.5) / 1e3,
		"controlplane.tick_us_p99":  tr.stat("controlplane.tick").percentile(0.99) / 1e3,
		"core.boosts.freq":          float64(boosts[core.BoostFrequency]),
		"core.boosts.inst":          float64(boosts[core.BoostInstance]),
		"core.withdraws":            float64(d.pc.Withdrawn),
		"core.plan_nonempty_frac":   float64(d.tap.nonEmpty) / math.Max(1, float64(d.tap.frames)),
		"controlplane.ticks_per_op": float64(d.adj.ticks) / done,
		"core.snapshot_us":          0,
		"core.snapshot_bytes":       0,
	}
	for _, st := range d.sys.Stages() {
		name := st.Name()
		n := math.Max(1, float64(d.visits[name]))
		m["stage."+name+".queue_ms_mean"] = float64(d.queue[name]) / n / 1e6
		m["stage."+name+".serve_ms_mean"] = float64(d.serve[name]) / n / 1e6
		m["stage."+name+".util"] = d.serve[name].Seconds() / d.eng.Now().Seconds()
	}
	// Snapshot encoding is timed after the run, outside the simulation, on
	// the frames the recorder kept: the capture itself runs inside the
	// policy call and is part of controlplane.tick_us.
	if frames := d.rec.Trace().Frames; len(frames) > 0 {
		start := time.Now()
		var bytes int
		for i := range frames {
			b, err := json.Marshal(frames[i].Snapshot)
			if err == nil {
				bytes += len(b)
			}
		}
		m["core.snapshot_us"] = float64(time.Since(start)) / 1e3 / float64(len(frames))
		m["core.snapshot_bytes"] = float64(bytes) / float64(len(frames))
	}
	return m
}

// desDigest hashes the simulated outputs: the latency multiset, the chip
// draw at every sample and the decision tallies. A change to host-side
// code only must leave it identical.
func desDigest(sorted []time.Duration, power []float64, boosts map[core.BoostKind]int, withdrawn int) string {
	h := sha256.New()
	var buf [8]byte
	for _, l := range sorted {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
	for _, p := range power {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "freq=%d inst=%d none=%d withdrawn=%d",
		boosts[core.BoostFrequency], boosts[core.BoostInstance], boosts[core.BoostNone], withdrawn)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
