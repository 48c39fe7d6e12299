package harness

import (
	"fmt"
	"math/rand"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

// Tenant is one application sharing the chip under a multi-tenant budget
// hierarchy: its own stage pipeline, arrival process, QoS target and
// PowerChief control loop, powered by a grant carved out of the chip-level
// root domain.
type Tenant struct {
	Name string
	App  app.App

	// Instances is the initial per-stage instance count (nil = one each).
	Instances []int
	// Level is the initial uniform frequency level.
	Level cmp.Level
	// Cores is the tenant's chip partition size (default 8).
	Cores int

	// QoS is the tenant's latency target, the arbiter's per-member Target.
	// Zero means none: strategies then weight by the raw bottleneck metric.
	QoS time.Duration
	// Weight is the tenant's fairness entitlement (zero reads as 1).
	Weight float64

	// Policy constructs the tenant's control policy. Nil = PowerChief with
	// the default configuration.
	Policy func() core.Policy
	// AdjustInterval is the tenant loop's control period (default 25 s).
	AdjustInterval time.Duration
	// StatsWindow is the tenant aggregator's window (default: the adjust
	// interval).
	StatsWindow time.Duration

	// Source builds the tenant's arrival process from its reference
	// capacity. Nil defaults to a constant medium load.
	Source func(refCapacityQPS float64) workload.Source
	// RefInstances/RefLevel fix the capacity anchor (default: the initial
	// configuration), so every arbiter policy faces identical arrivals.
	RefInstances []int
	RefLevel     cmp.Level
}

// MultiScenario describes one multi-tenant experiment: several tenants
// under one chip-level budget, with an optional cross-app arbiter loop
// re-granting per-tenant budgets from QoS headroom each epoch.
type MultiScenario struct {
	Name    string
	Tenants []Tenant
	// Budget is the chip-level cap the root domain owns. Zero derives it
	// from the sum of the tenants' initial configuration draws.
	Budget cmp.Watts

	// Arbiter constructs the cross-app arbitration policy (an
	// arbiter.Planner over some Strategy). Nil runs the static baseline:
	// the initial split, frozen — equal halving for two equal tenants.
	Arbiter func() core.Policy
	// ArbiterInterval is the outer epoch (default: twice the largest tenant
	// adjust interval, so the arbiter sees settled per-app reactions).
	ArbiterInterval time.Duration
	// Floor is the minimum per-tenant grant. Zero derives the largest
	// all-cores-at-minimum draw across tenants, so a floored grant is
	// always actuatable by DVFS shedding alone.
	Floor cmp.Watts
	// Hysteresis suppresses re-grants smaller than this (default Floor/4).
	Hysteresis cmp.Watts

	// Duration is the load-generation horizon.
	Duration time.Duration
	// DrainFactor bounds the post-horizon drain (default 1).
	DrainFactor float64
	// Seed drives all randomness; tenant i derives seed Seed+i·1000003.
	Seed int64
	// SampleEvery controls trace sampling (default: the arbiter interval).
	SampleEvery time.Duration

	// Churn scripts tenant membership changes at virtual times: an evict
	// stops the tenant's arrivals and control loop, sheds its chip partition
	// to the minimum draw and returns its grant to the root's headroom; an
	// admit re-creates the domain with a grant of at least Floor (reclaiming
	// watts from the richest tenants if the arbiter has granted the headroom
	// away) and restarts the loop and the arrivals. Events fire in
	// virtual-time order; each must name a scenario tenant.
	Churn []ChurnEvent

	// Audit, when set, receives the arbiter's re-grant decisions and every
	// tenant policy's boost decisions (via core.AuditSetter).
	Audit *telemetry.AuditLog
	// Metrics, when set, gets per-tenant grant/draw/metric gauges and the
	// root domain's budget/granted gauges registered on it.
	Metrics *telemetry.Registry
}

// ChurnEvent is one scripted tenant membership change.
type ChurnEvent struct {
	// At is the virtual time the event fires; must fall inside the
	// generation horizon.
	At time.Duration
	// Tenant names the affected scenario tenant.
	Tenant string
	// Admit re-admits a previously evicted tenant; false evicts a running
	// one.
	Admit bool
}

// ChurnRecord is one applied churn event: the watts an eviction freed back
// to the root, or the grant a re-admission received (never below the
// scenario floor — the floor re-admission guarantee).
type ChurnRecord struct {
	At     time.Duration
	Tenant string
	Admit  bool
	Watts  cmp.Watts
}

// TenantResult carries one tenant's collected metrics.
type TenantResult struct {
	Name   string
	Policy string
	QoS    time.Duration

	Submitted uint64
	Completed uint64
	// Latency summarizes the tenant's end-to-end query latency.
	Latency *stats.Summary

	// InitialGrant/FinalGrant bracket the tenant's domain grant; AvgGrant
	// and AvgPower are time-averaged over the run.
	InitialGrant cmp.Watts
	FinalGrant   cmp.Watts
	AvgGrant     cmp.Watts
	AvgPower     cmp.Watts

	// Boosts tallies the tenant loop's decisions by kind.
	Boosts map[core.BoostKind]int
}

// MultiResult is the full record of one RunMulti.
type MultiResult struct {
	Scenario string
	// Arbiter names the arbitration policy, or "static-split".
	Arbiter string
	Budget  cmp.Watts

	// Floor is the effective minimum per-tenant grant (the scenario's, or
	// the derived all-cores-at-minimum draw) — the churn re-admission bound.
	Floor cmp.Watts

	Tenants []TenantResult
	// Combined pools every tenant's completed-query latencies — the
	// combined p99 the arbitration-vs-static comparison is scored on.
	Combined *stats.Summary

	// ArbiterEpochs counts successful outer epochs (0 for static).
	ArbiterEpochs uint64
	// Violations counts arbiter epochs after which Σ child grants exceeded
	// the root budget — the hierarchy invariant; must be 0.
	Violations int
	// MaxGranted is the largest Σ child grants observed after any epoch.
	MaxGranted cmp.Watts

	// Churn records the applied membership changes in firing order.
	Churn []ChurnRecord

	// Trace holds sampled series: "grant:<tenant>", "power:<tenant>",
	// "metric:<tenant>" (seconds), and "granted" (Σ child grants).
	Trace *stats.TimeSeries
}

// tenantRun is the per-tenant machinery of one RunMulti.
type tenantRun struct {
	spec    Tenant
	chip    *cmp.Chip
	sys     *stage.System
	view    core.System
	agg     *core.Aggregator
	domain  *core.BudgetDomain
	policy  core.Policy
	loop    *controlplane.Loop
	gen     *workload.Generator
	latency *stats.Summary

	// evicted marks a tenant currently outside the hierarchy; boostTally
	// accumulates the boosts of loops stopped by evictions.
	evicted    bool
	boostTally map[core.BoostKind]int

	initialGrant  cmp.Watts
	powerIntegral float64 // watt-seconds
	grantIntegral float64 // watt-seconds
}

// minDraw is the tenant partition's all-instances-at-minimum draw — the
// power an evicted tenant keeps holding outside the ledger while parked.
func (r *tenantRun) minDraw(model cmp.PowerModel) cmp.Watts {
	var w cmp.Watts
	for _, st := range r.sys.Stages() {
		w += cmp.Watts(len(st.Active())) * model.MinPower()
	}
	return w
}

// appMetric is the tenant's end-to-end Equation 1 expected delay: for each
// stage the worst per-instance metric (the next query lands on some
// instance; the slowest bounds the stage), summed across the pipeline. The
// per-stage terms are the member's Breakdown.
func (r *tenantRun) appMetric() (time.Duration, []arbiter.StageMetric) {
	id := core.Identifier{Metric: core.MetricExpectedDelay}
	worst := make(map[string]time.Duration)
	for _, rk := range id.Rank(r.view, r.agg) {
		if rk.Metric > worst[rk.Stage.Name()] {
			worst[rk.Stage.Name()] = rk.Metric
		}
	}
	var total time.Duration
	stages := r.view.Stages()
	breakdown := make([]arbiter.StageMetric, 0, len(stages))
	for _, st := range stages {
		m := worst[st.Name()]
		breakdown = append(breakdown, arbiter.StageMetric{Stage: st.Name(), Metric: m})
		total += m
	}
	return total, breakdown
}

// shedToGrant makes a lowered grant physical on a tenant's chip partition:
// core.ShedLevels steps the highest-level instances down until the draw
// fits the new grant, then the chip budget is re-set. An unshedable cut —
// every instance already at the ladder floor — is an error, which the
// executor turns into a plan rollback: the arbiter must not starve a tenant
// below its minimum draw. Raised grants only lift the chip budget; spending
// the new headroom is deliberately left to the tenant's own PowerChief
// loop, which knows whether the next watt is worth more as a frequency step
// or an instance boost (the paper's Fig. 4 finding: at high load, instances
// beat frequency). The scenario's arbiter floor bounds how deep a cut can
// go, so an idle tenant is never more than a few frequency steps below base
// when load returns.
func shedToGrant(sys *stage.System, chip *cmp.Chip, w cmp.Watts) error {
	var insts []*stage.Instance
	for _, st := range sys.Stages() {
		insts = append(insts, st.Active()...)
	}
	if err := core.ShedLevels(insts, func() bool { return chip.Draw() <= w+1e-9 }); err != nil {
		return fmt.Errorf("harness: shedding to a %.2fW grant (draw %.2fW): %w",
			float64(w), float64(chip.Draw()), err)
	}
	return chip.SetBudget(w)
}

// evictTenant removes a tenant from the hierarchy mid-run: arrivals pause,
// the control loop stops (its boost tally is preserved), the chip partition
// is shed to its minimum draw — the power a parked partition keeps holding
// outside the ledger — and the domain's grant returns to the root's
// headroom. Returns the freed watts.
func evictTenant(r *tenantRun, root *core.BudgetDomain, model cmp.PowerModel) (cmp.Watts, error) {
	if r.evicted {
		return 0, fmt.Errorf("tenant %q is already evicted", r.spec.Name)
	}
	r.gen.Pause()
	r.loop.Stop()
	if err := shedToGrant(r.sys, r.chip, r.minDraw(model)); err != nil {
		return 0, fmt.Errorf("parking tenant %q: %w", r.spec.Name, err)
	}
	freed, err := root.Evict(r.spec.Name)
	if err != nil {
		return 0, fmt.Errorf("evicting tenant %q: %w", r.spec.Name, err)
	}
	r.evicted = true
	return freed, nil
}

// admitTenant re-admits an evicted tenant: a fresh child domain with a
// grant of at least the scenario floor (or the parked partition's draw, if
// instance boosts grew it past the floor), reclaimed by core.ReclaimFloor
// from the richest running tenants when the arbiter has granted the
// headroom away, and a fresh control loop on the shared group. The caller
// resumes arrivals.
func admitTenant(r *tenantRun, root *core.BudgetDomain, group *controlplane.Group,
	model cmp.PowerModel, floor cmp.Watts, audit *telemetry.AuditLog) (cmp.Watts, error) {
	if !r.evicted {
		return 0, fmt.Errorf("tenant %q is not evicted", r.spec.Name)
	}
	grant := floor
	if d := r.chip.Draw(); d > grant {
		grant = d
	}
	if err := core.ReclaimFloor(root.Children(), root.Headroom, grant, floor); err != nil {
		return 0, fmt.Errorf("re-admitting tenant %q: %w", r.spec.Name, err)
	}
	dom, err := root.NewChild(r.spec.Name, grant, func(w cmp.Watts) error {
		return shedToGrant(r.sys, r.chip, w)
	})
	if err != nil {
		return 0, fmt.Errorf("re-admitting tenant %q: %w", r.spec.Name, err)
	}
	// NewChild does not actuate the initial grant; lift the parked chip's
	// budget to it so the tenant loop has headroom to spend again.
	if err := shedToGrant(r.sys, r.chip, grant); err != nil {
		return 0, fmt.Errorf("re-admitting tenant %q: %w", r.spec.Name, err)
	}
	r.domain = dom
	r.evicted = false
	// The stopped loop is about to be replaced; fold its boosts into the
	// tally so the final TenantResult spans every incarnation.
	if r.boostTally == nil {
		r.boostTally = make(map[core.BoostKind]int)
	}
	for k, v := range r.loop.Boosts() {
		r.boostTally[k] += v
	}
	r.loop, err = group.Go(controlplane.NewAdjuster(r.view, r.agg), controlplane.Options{
		Policy:   r.policy,
		Interval: r.spec.AdjustInterval,
		Audit:    audit,
	})
	if err != nil {
		return 0, fmt.Errorf("tenant %q loop: %w", r.spec.Name, err)
	}
	return grant, nil
}

// tenantArbiterView is the arbiter's view of the root domain: the budget
// arithmetic comes from the domain ledger (Draw = Σ child grants, so the
// whole cap is distributable), the members are the tenants with their live
// Equation 1 metrics against their QoS targets.
type tenantArbiterView struct {
	now   func() time.Duration
	model cmp.PowerModel
	root  *core.BudgetDomain
	runs  []*tenantRun
	floor cmp.Watts
	hyst  cmp.Watts
}

func (v *tenantArbiterView) Now() time.Duration               { return v.now() }
func (v *tenantArbiterView) Stages() []core.StageControl      { return nil }
func (v *tenantArbiterView) Quarantined() []core.StageControl { return nil }
func (v *tenantArbiterView) PowerModel() cmp.PowerModel       { return v.model }
func (v *tenantArbiterView) Budget() cmp.Watts                { return v.root.Budget() }
func (v *tenantArbiterView) Draw() cmp.Watts                  { return v.root.Granted() }
func (v *tenantArbiterView) Headroom() cmp.Watts              { return v.root.Headroom() }
func (v *tenantArbiterView) FreeCores() int                   { return 0 }
func (v *tenantArbiterView) Floor() cmp.Watts                 { return v.floor }
func (v *tenantArbiterView) Hysteresis() cmp.Watts            { return v.hyst }

func (v *tenantArbiterView) Members() []arbiter.Member {
	out := make([]arbiter.Member, 0, len(v.runs))
	for _, r := range v.runs {
		if r.evicted {
			continue
		}
		metric, breakdown := r.appMetric()
		out = append(out, arbiter.Member{
			Control:   r.domain,
			Granted:   r.domain.Budget(),
			Metric:    metric,
			Target:    r.spec.QoS,
			Weight:    r.spec.Weight,
			Breakdown: breakdown,
		})
	}
	return out
}

// defaults fills in unset scenario fields that do not depend on built state.
func (sc *MultiScenario) defaults() {
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		if t.Cores == 0 {
			t.Cores = 8
		}
		if t.AdjustInterval == 0 {
			t.AdjustInterval = 25 * time.Second
		}
		if t.StatsWindow == 0 {
			t.StatsWindow = t.AdjustInterval
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.Instances == nil {
			t.Instances = make([]int, len(t.App.Stages))
			for j := range t.Instances {
				t.Instances[j] = 1
			}
		}
		if t.RefInstances == nil {
			t.RefInstances = t.Instances
		}
		if t.RefLevel == 0 {
			t.RefLevel = t.Level
		}
		if t.Policy == nil {
			t.Policy = func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) }
		}
		if t.Source == nil {
			t.Source = func(capacity float64) workload.Source {
				return workload.Constant(workload.RateForUtilization(capacity, workload.Medium.Utilization()))
			}
		}
	}
	if sc.ArbiterInterval == 0 {
		var max time.Duration
		for i := range sc.Tenants {
			if sc.Tenants[i].AdjustInterval > max {
				max = sc.Tenants[i].AdjustInterval
			}
		}
		sc.ArbiterInterval = 2 * max
	}
	if sc.SampleEvery == 0 {
		sc.SampleEvery = sc.ArbiterInterval
	}
	if sc.DrainFactor == 0 {
		sc.DrainFactor = 1
	}
}

// RunMulti executes the multi-tenant scenario: one DES engine, one chip
// budget lifted into a root BudgetDomain, one child domain (with its own
// chip partition, pipeline and unmodified PowerChief loop) per tenant, and
// — unless Arbiter is nil — an outer arbiter loop re-granting the split
// every epoch through the validating, rolling-back executor.
//
// The nested loops share the engine clock through a controlplane.Group with
// the arbiter registered first, so when an arbiter epoch coincides with
// tenant epochs the fresh grants land before the tenants react — the
// determinism contract that makes a run byte-reproducible. After every
// arbiter epoch the hierarchy invariant (Σ child grants ≤ chip budget) is
// checked and violations are counted; a correct run reports zero.
func RunMulti(sc MultiScenario) (*MultiResult, error) {
	sc.defaults()
	if len(sc.Tenants) == 0 {
		return nil, fmt.Errorf("harness: multi-tenant scenario %q needs tenants", sc.Name)
	}
	if sc.Duration <= 0 {
		return nil, fmt.Errorf("harness: scenario %q needs a positive duration", sc.Name)
	}
	for i := range sc.Tenants {
		if err := sc.Tenants[i].App.Validate(); err != nil {
			return nil, fmt.Errorf("harness: tenant %q: %w", sc.Tenants[i].Name, err)
		}
	}
	for _, ev := range sc.Churn {
		known := false
		for i := range sc.Tenants {
			if sc.Tenants[i].Name == ev.Tenant {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("harness: churn event names unknown tenant %q", ev.Tenant)
		}
		if ev.At <= 0 || ev.At >= sc.Duration {
			return nil, fmt.Errorf("harness: churn event for %q at %v outside the (0, %v) horizon",
				ev.Tenant, ev.At, sc.Duration)
		}
	}

	eng := sim.NewEngine()
	model := cmp.DefaultModel()

	// Initial draws decide the derived budget, floor and grants before any
	// chip is built.
	specsByTenant := make([][]stage.Spec, len(sc.Tenants))
	draws := make([]cmp.Watts, len(sc.Tenants))
	var totalDraw, sumWeight cmp.Watts
	floor := sc.Floor
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		specs, err := t.App.Specs(t.Instances, t.Level)
		if err != nil {
			return nil, fmt.Errorf("harness: tenant %q: %w", t.Name, err)
		}
		specsByTenant[i] = specs
		var draw, minDraw cmp.Watts
		for _, spec := range specs {
			draw += cmp.Watts(spec.Instances) * model.Power(spec.Level)
			minDraw += cmp.Watts(spec.Instances) * model.MinPower()
		}
		draws[i] = draw
		totalDraw += draw
		sumWeight += cmp.Watts(t.Weight)
		if sc.Floor == 0 && minDraw > floor {
			floor = minDraw
		}
	}
	budget := sc.Budget
	if budget == 0 {
		budget = totalDraw
	}
	if budget < totalDraw-1e-9 {
		return nil, fmt.Errorf("harness: scenario %q: budget %.2fW below the %.2fW initial draw",
			sc.Name, float64(budget), float64(totalDraw))
	}
	hyst := sc.Hysteresis
	if hyst == 0 {
		hyst = floor / 4
	}

	// The initial split: each tenant's configuration draw, plus the
	// weight-proportional share of the leftover headroom. Equal tenants get
	// equal halves — the static-halving baseline the arbiter is scored
	// against.
	root := core.NewRootDomain("chip", budget)
	leftover := budget - totalDraw
	runs := make([]*tenantRun, len(sc.Tenants))
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		grant := draws[i] + leftover*cmp.Watts(t.Weight)/sumWeight
		chip := cmp.NewChip(t.Cores, model, grant)
		sys, err := stage.NewSystem(eng, chip, specsByTenant[i])
		if err != nil {
			return nil, fmt.Errorf("harness: tenant %q: %w", t.Name, err)
		}
		r := &tenantRun{
			spec:         *t,
			chip:         chip,
			sys:          sys,
			view:         core.NewDESView(sys),
			agg:          core.NewAggregator(t.StatsWindow, eng.Now),
			policy:       t.Policy(),
			latency:      stats.NewSummary(),
			initialGrant: grant,
		}
		r.domain, err = root.NewChild(t.Name, grant, func(w cmp.Watts) error {
			return shedToGrant(sys, chip, w)
		})
		if err != nil {
			return nil, fmt.Errorf("harness: tenant %q: %w", t.Name, err)
		}
		runs[i] = r
	}

	res := &MultiResult{
		Scenario: sc.Name,
		Arbiter:  "static-split",
		Budget:   budget,
		Floor:    floor,
		Combined: stats.NewSummary(),
		Trace:    stats.NewTimeSeries(),
	}

	// Completion taps and load generators, one per tenant, each with a
	// deterministic derived seed.
	for i, r := range runs {
		r := r
		r.sys.OnComplete(func(q *query.Query) {
			r.agg.Ingest(q)
			r.latency.Observe(q.Latency())
			res.Combined.Observe(q.Latency())
		})
		capacity := r.spec.App.CapacityQPS(r.spec.RefInstances, r.spec.RefLevel)
		src := r.spec.Source(capacity)
		rng := rand.New(rand.NewSource(sc.Seed + int64(i)*1000003))
		branches := make([]int, len(r.spec.Instances))
		copy(branches, r.spec.Instances)
		r.gen = workload.NewGenerator(eng, r.sys, src, func(rr *rand.Rand) [][]time.Duration {
			return r.spec.App.DrawWork(rr, branches)
		}, rng, sc.Duration)
		r.gen.Start()
	}

	// Control plane: a Group of nested loops on the engine clock, arbiter
	// first (fresh grants land before tenants react at coinciding epochs).
	group, err := controlplane.NewGroup(controlplane.SimClock(eng))
	if err != nil {
		return nil, err
	}
	checkInvariant := func() {
		if err := root.CheckInvariant(); err != nil {
			res.Violations++
		}
		if g := root.Granted(); g > res.MaxGranted {
			res.MaxGranted = g
		}
	}
	var arbLoop *controlplane.Loop
	if sc.Arbiter != nil {
		arbPolicy := sc.Arbiter()
		res.Arbiter = arbPolicy.Name()
		aview := &tenantArbiterView{
			now: eng.Now, model: model, root: root, runs: runs, floor: floor, hyst: hyst,
		}
		arbLoop, err = group.Go(controlplane.NewAdjuster(aview, nil), controlplane.Options{
			Policy:    arbPolicy,
			Interval:  sc.ArbiterInterval,
			Audit:     sc.Audit,
			OnOutcome: func(core.BoostOutcome) { checkInvariant() },
			OnError:   func(error) { checkInvariant() },
		})
		if err != nil {
			return nil, fmt.Errorf("harness: %q arbiter loop: %w", sc.Name, err)
		}
	}
	for _, r := range runs {
		r.loop, err = group.Go(controlplane.NewAdjuster(r.view, r.agg), controlplane.Options{
			Policy:   r.policy,
			Interval: r.spec.AdjustInterval,
			Audit:    sc.Audit,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: tenant %q loop: %w", r.spec.Name, err)
		}
	}

	// Churn: scripted membership changes, validated above and applied as
	// engine events. A failure inside an event cannot return, so the first
	// one is carried out and fails the whole run after the horizon.
	var churnErr error
	churnFail := func(err error) {
		if churnErr == nil {
			churnErr = err
		}
	}
	runByName := make(map[string]*tenantRun, len(runs))
	for _, r := range runs {
		runByName[r.spec.Name] = r
	}
	for _, ev := range sc.Churn {
		ev := ev
		r := runByName[ev.Tenant]
		eng.ScheduleAt(ev.At, func() {
			var err error
			var watts cmp.Watts
			if ev.Admit {
				watts, err = admitTenant(r, root, group, model, floor, sc.Audit)
				if err == nil {
					r.gen.Resume()
				}
			} else {
				watts, err = evictTenant(r, root, model)
			}
			if err != nil {
				churnFail(fmt.Errorf("at %v: %w", ev.At, err))
				return
			}
			res.Churn = append(res.Churn, ChurnRecord{
				At: eng.Now(), Tenant: ev.Tenant, Admit: ev.Admit, Watts: watts,
			})
			checkInvariant()
		})
	}

	// Sampler: registered after every loop, so equal-timestamp samples see
	// the post-adjust state.
	lastSample := time.Duration(0)
	stopSample := eng.Every(sc.SampleEvery, func() {
		now := eng.Now()
		dt := (now - lastSample).Seconds()
		lastSample = now
		for _, r := range runs {
			grant := r.domain.Budget()
			r.powerIntegral += float64(r.chip.Draw()) * dt
			r.grantIntegral += float64(grant) * dt
			res.Trace.Record("grant:"+r.spec.Name, now, float64(grant))
			res.Trace.Record("power:"+r.spec.Name, now, float64(r.chip.Draw()))
			metric, _ := r.appMetric()
			res.Trace.Record("metric:"+r.spec.Name, now, metric.Seconds())
		}
		res.Trace.Record("granted", now, float64(root.Granted()))
	})

	if sc.Metrics != nil {
		registerTenantMetrics(sc.Metrics, root, runs)
	}

	// Generation horizon, then drain every tenant (bounded).
	minAdjust := sc.Tenants[0].AdjustInterval
	for i := range sc.Tenants {
		if sc.Tenants[i].AdjustInterval < minAdjust {
			minAdjust = sc.Tenants[i].AdjustInterval
		}
	}
	drained := func() bool {
		for _, r := range runs {
			if !r.sys.Drain() {
				return false
			}
		}
		return true
	}
	eng.RunUntil(sc.Duration)
	deadline := sc.Duration + time.Duration(float64(sc.Duration)*sc.DrainFactor)
	for eng.Now() < deadline && !drained() {
		step := minAdjust
		if eng.Now()+step > deadline {
			step = deadline - eng.Now()
		}
		eng.RunUntil(eng.Now() + step)
	}
	group.Stop()
	stopSample()

	if churnErr != nil {
		return nil, fmt.Errorf("harness: %q churn: %w", sc.Name, churnErr)
	}
	if arbLoop != nil {
		res.ArbiterEpochs = arbLoop.Total()
	}
	horizon := lastSample.Seconds()
	for _, r := range runs {
		boosts := r.loop.Boosts()
		for k, v := range r.boostTally {
			boosts[k] += v
		}
		tr := TenantResult{
			Name:         r.spec.Name,
			Policy:       r.policy.Name(),
			QoS:          r.spec.QoS,
			Submitted:    r.sys.Submitted(),
			Completed:    r.sys.Completed(),
			Latency:      r.latency,
			InitialGrant: r.initialGrant,
			FinalGrant:   r.domain.Budget(),
			Boosts:       boosts,
		}
		if horizon > 0 {
			tr.AvgPower = cmp.Watts(r.powerIntegral / horizon)
			tr.AvgGrant = cmp.Watts(r.grantIntegral / horizon)
		} else {
			tr.AvgPower = r.chip.Draw()
			tr.AvgGrant = r.domain.Budget()
		}
		res.Tenants = append(res.Tenants, tr)
		if err := r.chip.CheckInvariant(); err != nil {
			return nil, fmt.Errorf("harness: tenant %q ended with a broken chip invariant: %w", r.spec.Name, err)
		}
	}
	if err := root.CheckInvariant(); err != nil {
		return nil, fmt.Errorf("harness: %q ended with a broken domain invariant: %w", sc.Name, err)
	}
	return res, nil
}

// registerTenantMetrics exposes the hierarchy on a telemetry registry:
// per-tenant grant, draw and bottleneck-metric gauges plus the root
// domain's budget and granted sums.
func registerTenantMetrics(reg *telemetry.Registry, root *core.BudgetDomain, runs []*tenantRun) {
	reg.GaugeFunc("powerchief_domain_budget_watts",
		"chip-level root domain budget", func() float64 { return float64(root.Budget()) })
	reg.GaugeFunc("powerchief_domain_granted_watts",
		"sum of per-tenant grants", func() float64 { return float64(root.Granted()) })
	for _, r := range runs {
		r := r
		name := telemetry.SanitizeName(r.spec.Name)
		reg.GaugeFunc("powerchief_tenant_grant_watts_"+name,
			"tenant's current budget grant", func() float64 { return float64(r.domain.Budget()) })
		reg.GaugeFunc("powerchief_tenant_draw_watts_"+name,
			"tenant's current chip draw", func() float64 { return float64(r.chip.Draw()) })
		reg.GaugeFunc("powerchief_tenant_metric_seconds_"+name,
			"tenant's end-to-end expected delay (Equation 1)", func() float64 {
				m, _ := r.appMetric()
				return m.Seconds()
			})
	}
}

// CombinedImprovement returns baseline/measured ratios for the combined
// mean and P99 latency of a multi-tenant result against a baseline — the
// arbitration-vs-static-halving score.
func CombinedImprovement(baseline, measured *MultiResult) (avg, p99 float64) {
	avg = stats.Improvement(baseline.Combined.Mean(), measured.Combined.Mean())
	p99 = stats.Improvement(baseline.Combined.P99(), measured.Combined.P99())
	return avg, p99
}

// BenchTenantScenario is the recorded multi-tenant benchmark: Sirius riding
// a diurnal cycle and NLP hit by a flash crowd, their peaks offset so the
// chip is never short of watts overall — only ever in the wrong tenant's
// hands. A static halving strands the idle tenant's headroom exactly when
// the other peaks; the arbiter re-grants it. Pass Arbiter (or leave nil for
// the static baseline) on the returned scenario.
func BenchTenantScenario(seed int64) MultiScenario {
	return MultiScenario{
		Name: "multitenant-sirius-nlp",
		Tenants: []Tenant{
			{
				Name: "sirius", App: app.Sirius(),
				Instances: []int{1, 1, 2}, Level: 6,
				QoS: 2 * time.Second,
				Source: func(capacity float64) workload.Source {
					// Crest at t = 100 s, trough around t = 300 s. The crest
					// stays below capacity so this tenant is never the
					// structural bottleneck: at any seed, the combined tail
					// is owned by the flash tenant, and the watts stranded
					// here during the trough are what arbitration moves.
					d, err := workload.NewDiurnal(0.2*capacity, 0.8*capacity, 400*time.Second)
					if err != nil {
						panic(err) // static construction cannot fail
					}
					return d
				},
			},
			{
				Name: "nlp", App: app.NLP(),
				Instances: []int{1, 2, 1}, Level: 6,
				QoS: 1500 * time.Millisecond,
				Source: func(capacity float64) workload.Source {
					// One 120 s flash crowd landing inside the diurnal
					// tenant's trough: the chip as a whole has the watts, the
					// static split has them in the wrong tenant's hands.
					tr, err := workload.NewTrace(
						workload.Phase{Until: 260 * time.Second, Rate: 0.3 * capacity},
						workload.Phase{Until: 380 * time.Second, Rate: 2 * capacity},
						workload.Phase{Until: 10000 * time.Second, Rate: 0.3 * capacity},
					)
					if err != nil {
						panic(err) // static construction cannot fail
					}
					return tr
				},
			},
		},
		ArbiterInterval: 25 * time.Second,
		// A high floor bounds how deep any single tenant can be cut. Cuts
		// actuate instantly (DVFS shed) but recovery takes the tenant loop
		// several epochs of re-boosting, so shallow cuts keep a mistimed
		// re-grant recoverable while still moving ~4 W to the hot tenant.
		Floor:      14,
		Hysteresis: 1,
		Duration:   600 * time.Second,
		Seed:       seed,
	}
}
