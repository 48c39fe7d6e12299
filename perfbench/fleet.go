package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/fault"
	"powerchief/internal/fleet"
	"powerchief/internal/sim"
)

// fleetConfig is the fleet-1000 workload: one coordinator redistributing a
// cluster budget over simulated nodes every virtual second, with a block of
// nodes partitioned mid-run.
type fleetConfig struct {
	Nodes    int
	Epochs   int
	Interval time.Duration
	PerNode  cmp.Watts // cluster budget per node
	Floor    cmp.Watts
	// Nodes [0, Partitioned) are unreachable from PartFrom to PartTo, each
	// shifted by a seed-drawn fraction of an epoch, and keep their state
	// (so their first report after the heal carries a stale epoch).
	Partitioned      int
	PartFrom         time.Duration
	PartTo           time.Duration
	MinLoad, MaxLoad float64
	// Limit is the host-time limit per epoch that goodput counts against.
	Limit time.Duration
}

var fleetDefault = fleetConfig{
	Nodes:       1000,
	Epochs:      3000,
	Interval:    time.Second,
	PerNode:     10,
	Floor:       5,
	Partitioned: 100,
	PartFrom:    500 * time.Second,
	PartTo:      1500 * time.Second,
	MinLoad:     1.0,
	MaxLoad:     2.5,
	Limit:       2 * time.Millisecond,
}

// fleetSim is one built fleet deployment, ready to run.
type fleetSim struct {
	cfg        fleetConfig
	tr         *tracer
	eng        *sim.Engine
	coord      *fleet.Coordinator
	loop       *controlplane.Loop
	adj        *timedAdjuster
	policy     *timedPolicy
	budget     cmp.Watts
	killAt     time.Duration
	healAt     time.Duration
	stopSample func()

	partitioned []string // names of the partitioned nodes
	samples     []fleet.SimSample
	reachable   float64 // Σ over samples of the watts granted to reachable nodes
	violations  int
	stranded    int
	convergedAt time.Duration
	recoveredAt time.Duration

	// Per-epoch transport accounting (traced runs only).
	reportNs, grantInPolicyNs int64
	grants, grantFails        int64
	plan, apply               []float64 // µs per epoch
}

// timedTransport wraps one node's fleet.Transport (traced runs only).
type timedTransport struct {
	inner fleet.Transport
	f     *fleetSim
}

func (t *timedTransport) Name() string { return t.inner.Name() }

func (t *timedTransport) Report() (fleet.Report, error) {
	t.f.tr.begin("fleet.report", t.f.adj.ticks)
	start := time.Now()
	rep, err := t.inner.Report()
	t.f.reportNs += int64(time.Since(start))
	t.f.tr.end()
	return rep, err
}

func (t *timedTransport) Grant(g fleet.Grant) error {
	t.f.tr.begin("fleet.grant", t.f.adj.ticks)
	start := time.Now()
	err := t.inner.Grant(g)
	d := int64(time.Since(start))
	t.f.tr.end()
	if t.f.policy.inside {
		t.f.grantInPolicyNs += d
	}
	t.f.grants++
	if err != nil {
		t.f.grantFails++
	}
	return err
}

func buildFleet(cfg fleetConfig, seed int64, tr *tracer) (*fleetSim, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fleetSim{cfg: cfg, tr: tr, eng: sim.NewEngine()}
	f.budget = cfg.PerNode * cmp.Watts(cfg.Nodes)
	shift := time.Duration(rng.Float64() * float64(cfg.Interval))
	f.killAt, f.healAt = cfg.PartFrom+shift, cfg.PartTo+shift
	f.adj = &timedAdjuster{tr: tr, name: "controlplane.tick", after: f.afterEpoch}
	f.policy = &timedPolicy{inner: fleet.NewRebalance(), tr: tr, name: "arbiter.plan"}

	transports := make([]fleet.Transport, cfg.Nodes)
	for i := range transports {
		load := cfg.MinLoad + (cfg.MaxLoad-cfg.MinLoad)*rng.Float64()
		n := fleet.NewSimNode(fmt.Sprintf("node-%04d", i), f.eng.Now, load)
		if i < cfg.Partitioned {
			n.FailBetween(f.killAt, f.healAt, false)
			f.partitioned = append(f.partitioned, n.Name())
		}
		transports[i] = n
		if tr != nil {
			transports[i] = &timedTransport{inner: n, f: f}
		}
	}
	var err error
	f.coord, err = fleet.NewCoordinator(fleet.Options{Budget: f.budget, Floor: cfg.Floor, Now: f.eng.Now}, transports...)
	if err != nil {
		return nil, err
	}
	f.adj.inner = f.coord
	f.loop, err = controlplane.Start(controlplane.SimClock(f.eng), f.adj, controlplane.Options{
		Policy:   f.policy,
		Interval: cfg.Interval,
	})
	if err != nil {
		return nil, err
	}
	// The sampler registers after the loop, so at equal timestamps it sees
	// the post-epoch ledger, as fleet.RunFleetSim samples it.
	f.stopSample = f.eng.Every(cfg.Interval, f.sample)
	return f, nil
}

func (f *fleetSim) sample() {
	healths := f.coord.Healths()
	granted := f.coord.Granted()
	s := fleet.SimSample{T: f.eng.Now(), Granted: f.coord.Draw()}
	for name, h := range healths {
		switch h {
		case fault.Healthy, fault.Suspect:
			s.Healthy++
		default:
			s.Quarantined++
			s.Stranded += granted[name]
		}
	}
	f.samples = append(f.samples, s)
	// Watts a partitioned node holds until the coordinator reclaims them
	// serve nothing; budget not yet re-granted after the heal is missing
	// from s.Granted already.
	reachable := s.Granted
	if s.T >= f.killAt && s.T < f.healAt {
		for _, name := range f.partitioned {
			reachable -= granted[name]
		}
	}
	f.reachable += float64(reachable)
	if s.Granted > f.budget+1e-9 {
		f.violations++
	}
	if s.Stranded > 1e-9 {
		f.stranded++
	}
	if f.convergedAt == 0 && s.T >= f.killAt && s.Quarantined == f.cfg.Partitioned && f.budget-s.Granted <= f.cfg.Floor {
		f.convergedAt = s.T
	}
	if f.recoveredAt == 0 && s.T >= f.healAt && s.Quarantined == 0 && f.budget-s.Granted <= f.cfg.Floor {
		f.recoveredAt = s.T
	}
}

// afterEpoch splits a traced epoch into plan (the policy call minus the
// grants it issued) and apply (everything else but the heartbeats).
func (f *fleetSim) afterEpoch(core.BoostOutcome, error) {
	if f.tr == nil {
		return
	}
	epoch := int64(f.adj.durs[len(f.adj.durs)-1])
	plan := int64(f.policy.last) - f.grantInPolicyNs
	f.plan = append(f.plan, float64(plan)/1e3)
	f.apply = append(f.apply, float64(epoch-f.reportNs-plan)/1e3)
	f.policy.last, f.reportNs, f.grantInPolicyNs = 0, 0, 0
}

// segment runs the i-th of n equal slices of the epochs; the last one
// stops the control loop.
func (f *fleetSim) segment(i, n int) {
	if i == 0 {
		f.samples = make([]fleet.SimSample, 0, f.cfg.Epochs)
		f.tr.begin("sim.run", -1)
	}
	f.eng.RunUntil(time.Duration(f.cfg.Epochs) * f.cfg.Interval * time.Duration(i+1) / time.Duration(n))
	if i == n-1 {
		f.tr.end()
		f.stop()
	}
}

func (f *fleetSim) stop() {
	f.stopSample()
	f.loop.Stop()
}

func (f *fleetSim) done() int { return len(f.adj.durs) }

func (f *fleetSim) result(c cost) *simRep {
	errs, lastErr := f.loop.Errors()
	r := &simRep{cost: c, ops: f.adj.ticks, attempted: f.adj.ticks, failed: int64(errs)}
	r.opLat = durationsMs(f.adj.durs)
	r.lat = summarize(append([]float64(nil), r.opLat...))
	for _, d := range f.adj.durs {
		if d <= f.cfg.Limit {
			r.good++
		}
	}
	r.power = f.reachable / math.Max(1, float64(len(f.samples)))
	quar, readm, fenced := f.coord.Counts()
	r.digest = fleetDigest(f.samples, quar, readm, fenced)
	r.checks = []check{
		{"fleet.granted_within_budget", f.violations == 0 && len(f.samples) > 0,
			fmt.Sprintf("%d of %d epochs granted more than %.0f W", f.violations, len(f.samples), float64(f.budget))},
		{"fleet.no_stranded_watts", f.stranded == 0, fmt.Sprintf("%d epochs left watts on quarantined nodes", f.stranded)},
		{"fleet.readmissions_equal_quarantines", readm == quar && quar >= uint64(f.cfg.Partitioned),
			fmt.Sprintf("%d quarantines, %d readmissions, %d partitioned nodes", quar, readm, f.cfg.Partitioned)},
		{"fleet.converged_and_recovered", f.convergedAt > 0 && f.recoveredAt > 0,
			fmt.Sprintf("converged at %v, recovered at %v", f.convergedAt, f.recoveredAt)},
		{"fleet.no_failed_epoch", errs == 0, fmt.Sprintf("%d failed epochs (last: %v)", errs, lastErr)},
	}
	if f.tr != nil {
		r.layer = f.layers(r, quar, readm, fenced)
	}
	return r
}

func (f *fleetSim) layers(r *simRep, quar, readm, fenced uint64) map[string]float64 {
	tr := f.tr
	epochs := float64(r.ops)
	plan := append([]float64(nil), f.plan...)
	apply := append([]float64(nil), f.apply...)
	return map[string]float64{
		"sim.events_per_op":         float64(f.eng.Fired()) / epochs,
		"sim.self_s":                float64(tr.self("sim.run")) / 1e9,
		"runtime.bytes_per_op":      float64(r.cost.bytes) / epochs,
		"runtime.gc_cycles":         float64(r.cost.gcs),
		"controlplane.tick_us_p50":  tr.stat("controlplane.tick").percentile(0.5) / 1e3,
		"controlplane.tick_us_p99":  tr.stat("controlplane.tick").percentile(0.99) / 1e3,
		"controlplane.ticks_per_op": 1,
		"arbiter.plan_us_p50":       summarize(plan).P50,
		"arbiter.plan_us_p99":       summarize(plan).P99,
		"arbiter.actions_per_epoch": float64(f.grants) / epochs,
		"fleet.report_us_p50":       tr.stat("fleet.report").percentile(0.5) / 1e3,
		"fleet.grant_us_p50":        tr.stat("fleet.grant").percentile(0.5) / 1e3,
		"fleet.grant_fail":          float64(f.grantFails),
		"fleet.quarantines":         float64(quar),
		"fleet.readmissions":        float64(readm),
		"fleet.fenced":              float64(fenced),
		"fleet.converge_s":          (f.convergedAt - f.killAt).Seconds(),
		"fleet.recover_s":           (f.recoveredAt - f.healAt).Seconds(),
		"core.apply_us_p50":         summarize(apply).P50,
	}
}

// fleetDigest hashes the simulated per-epoch samples and the health-machine
// tallies.
func fleetDigest(samples []fleet.SimSample, quar, readm, fenced uint64) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range samples {
		for _, v := range []uint64{uint64(s.T), math.Float64bits(float64(s.Granted)),
			uint64(s.Healthy), uint64(s.Quarantined), math.Float64bits(float64(s.Stranded))} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(h, "q=%d r=%d f=%d", quar, readm, fenced)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
