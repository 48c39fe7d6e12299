package live

import (
	"fmt"
	"math"
	"sync"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
)

// Options configures a cluster.
type Options struct {
	// Cores is the chip size (default 16).
	Cores int
	// Model is the per-core power model (default cmp.DefaultModel()).
	Model cmp.PowerModel
	// Budget is the power budget (required).
	Budget cmp.Watts
	// TimeScale maps virtual duration to wall duration: wall = virtual ×
	// TimeScale. 0.01 runs a 900-virtual-second experiment in 9 wall
	// seconds. Default 1.0.
	TimeScale float64
}

// StageSpec describes one live stage.
type StageSpec struct {
	Name      string
	Kind      stage.Kind
	Profile   cmp.SpeedupProfile
	Instances int
	Level     cmp.Level
}

// Cluster is a running live deployment: one stage.System on a sim.Engine
// whose virtual clock is paced to the wall clock. It implements
// core.System, so any control policy can drive it.
//
// Every entry point takes mu and first runs the engine up to the
// wall-derived virtual now, then acts; a pacer goroutine sleeps until the
// next event is due. Queries that complete while mu is held are handed to
// the OnComplete callbacks after it is released.
type Cluster struct {
	opts  Options
	start time.Time

	mu     sync.Mutex
	eng    *sim.Engine
	chip   *cmp.Chip
	sys    *stage.System
	stages []*Stage
	closed bool
	wakeAt time.Duration // virtual time the pacer sleeps until

	done       []*query.Query       // completed under mu, awaiting delivery
	onComplete []func(*query.Query) // copy-on-write, so unlock reads it unlocked

	nudge chan struct{} // wakes the pacer when an earlier event appears
	quit  chan struct{}
	paced sync.WaitGroup
}

// NewCluster builds the stages and starts the pacer.
func NewCluster(opts Options, specs []StageSpec) (*Cluster, error) {
	if opts.Cores == 0 {
		opts.Cores = 16
	}
	if opts.Model == nil {
		opts.Model = cmp.DefaultModel()
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("live: cluster needs a positive power budget")
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 1
	}
	if opts.TimeScale < 0 {
		return nil, fmt.Errorf("live: negative time scale")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("live: cluster needs at least one stage")
	}
	stageSpecs := make([]stage.Spec, len(specs))
	for i, s := range specs {
		stageSpecs[i] = stage.Spec(s)
	}
	c := &Cluster{
		opts:  opts,
		start: time.Now(),
		eng:   sim.NewEngine(),
		chip:  cmp.NewChip(opts.Cores, opts.Model, opts.Budget),
		nudge: make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	sys, err := stage.NewSystem(c.eng, c.chip, stageSpecs)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	c.sys = sys
	sys.OnComplete(func(q *query.Query) { c.done = append(c.done, q) })
	for _, st := range sys.Stages() {
		c.stages = append(c.stages, &Stage{cluster: c, st: st, insts: make(map[*stage.Instance]*Instance)})
	}
	c.paced.Add(1)
	go c.pace()
	return c, nil
}

// Now returns the virtual time since cluster start.
func (c *Cluster) Now() time.Duration {
	return time.Duration(float64(time.Since(c.start)) / c.opts.TimeScale)
}

// wall converts a virtual duration to wall time, rounding up so a pacer
// woken at the wall instant finds the event due.
func (c *Cluster) wall(d time.Duration) time.Duration {
	return time.Duration(math.Ceil(float64(d) * c.opts.TimeScale))
}

// lock takes mu and runs the engine up to the present, so the caller acts
// on the state the wall clock implies.
func (c *Cluster) lock() {
	c.mu.Lock()
	if !c.closed {
		c.eng.RunUntil(c.Now())
	}
}

// unlock nudges the pacer if the next event now falls before its wake-up,
// releases mu, and then delivers the queries completed under it.
func (c *Cluster) unlock() {
	if at, ok := c.eng.Next(); ok && at < c.wakeAt {
		c.wakeAt = at
		select {
		case c.nudge <- struct{}{}:
		default:
		}
	}
	if len(c.done) == 0 {
		c.mu.Unlock()
		return
	}
	var buf [8]*query.Query
	done := append(buf[:0], c.done...)
	clear(c.done)
	c.done = c.done[:0]
	cbs := c.onComplete
	c.mu.Unlock()
	for _, q := range done {
		for _, fn := range cbs {
			fn(q)
		}
	}
}

// pace is the cluster's one goroutine: it sleeps until the next event is
// due (or an entry point scheduled an earlier one) and runs the engine.
func (c *Cluster) pace() {
	defer c.paced.Done()
	timer := time.NewTimer(time.Hour)
	for {
		c.lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		at, pending := c.eng.Next()
		c.wakeAt = time.Duration(math.MaxInt64)
		if pending {
			c.wakeAt = at
		}
		c.unlock()
		var tick <-chan time.Time
		if pending {
			// Stop and drain before Reset: with go 1.22 timer semantics a
			// fired timer's channel keeps its stale tick.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(c.start.Add(c.wall(at))))
			tick = timer.C
		}
		select {
		case <-tick:
		case <-c.nudge:
		case <-c.quit:
			timer.Stop()
			return
		}
	}
}

// PowerModel implements core.System.
func (c *Cluster) PowerModel() cmp.PowerModel { return c.opts.Model }

// Budget implements core.System.
func (c *Cluster) Budget() cmp.Watts {
	c.lock()
	defer c.unlock()
	return c.chip.Budget()
}

// SetBudget re-grants the cluster's local power budget — the actuation a
// fleet coordinator's SetBudgetAction lands on. A lowered budget sheds load
// first: core.ShedLevels steps the highest-level instances down until the
// draw fits, then the chip budget is set, so the call never leaves the chip
// over-budget. The whole shed runs under c.mu.
func (c *Cluster) SetBudget(w cmp.Watts) error {
	if w < 0 {
		return fmt.Errorf("live: negative budget %.2fW", float64(w))
	}
	c.lock()
	defer c.unlock()
	var insts []*stage.Instance
	for _, st := range c.stages {
		insts = append(insts, st.st.Instances()...)
	}
	if err := core.ShedLevels(insts, func() bool { return c.chip.Draw() <= w+1e-9 }); err != nil {
		return fmt.Errorf("live: shedding to a %.2fW budget (draw %.2fW): %w",
			float64(w), float64(c.chip.Draw()), err)
	}
	return c.chip.SetBudget(w)
}

// Draw implements core.System.
func (c *Cluster) Draw() cmp.Watts {
	c.lock()
	defer c.unlock()
	return c.chip.Draw()
}

// Headroom implements core.System.
func (c *Cluster) Headroom() cmp.Watts {
	c.lock()
	defer c.unlock()
	return c.chip.Headroom()
}

// FreeCores implements core.System.
func (c *Cluster) FreeCores() int {
	c.lock()
	defer c.unlock()
	return c.chip.Free()
}

// Quarantined implements core.System. The in-process cluster cannot lose a
// stage; nothing is quarantined.
func (c *Cluster) Quarantined() []core.StageControl { return nil }

// Stages implements core.System.
func (c *Cluster) Stages() []core.StageControl {
	out := make([]core.StageControl, len(c.stages))
	for i, st := range c.stages {
		out[i] = st
	}
	return out
}

// StageByName returns a live stage, or nil.
func (c *Cluster) StageByName(name string) *Stage {
	for _, st := range c.stages {
		if st.Name() == name {
			return st
		}
	}
	return nil
}

// OnComplete registers a completion callback. Callbacks run outside the
// cluster lock, on the goroutine whose entry point (or the pacer) ran the
// completing event.
func (c *Cluster) OnComplete(fn func(*query.Query)) {
	if fn == nil {
		panic("live: nil completion callback")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onComplete = append(c.onComplete[:len(c.onComplete):len(c.onComplete)], fn)
}

// Submit injects a query into the first stage.
func (c *Cluster) Submit(q *query.Query) error {
	c.lock()
	defer c.unlock()
	if c.closed {
		return fmt.Errorf("live: cluster closed")
	}
	if len(q.Work) != len(c.stages) {
		return fmt.Errorf("live: query %d carries work for %d stages, pipeline has %d", q.ID, len(q.Work), len(c.stages))
	}
	c.sys.Submit(q)
	return nil
}

// Submitted returns the number of injected queries.
func (c *Cluster) Submitted() uint64 {
	c.lock()
	defer c.unlock()
	return c.sys.Submitted()
}

// Completed returns the number of finished queries.
func (c *Cluster) Completed() uint64 {
	c.lock()
	defer c.unlock()
	return c.sys.Completed()
}

// InFlight returns queries currently inside the pipeline.
func (c *Cluster) InFlight() uint64 {
	c.lock()
	defer c.unlock()
	return c.sys.InFlight()
}

// Close stops the pacer and freezes the engine: in-flight queries are
// abandoned and no further event runs.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	c.paced.Wait()
}

// Stage is one live processing stage: a pool of worker instances. It
// implements core.StageControl over the underlying stage.Stage.
type Stage struct {
	cluster *Cluster
	st      *stage.Stage
	insts   map[*stage.Instance]*Instance // guarded by cluster.mu
}

// Name implements core.StageControl.
func (st *Stage) Name() string { return st.st.Name() }

// CanScale implements core.StageControl.
func (st *Stage) CanScale() bool { return st.st.Kind() == stage.Pipeline }

// Profile implements core.StageControl.
func (st *Stage) Profile() cmp.SpeedupProfile { return st.st.Profile() }

// wrap returns the one *Instance for in, so handles compare equal across
// calls; caller holds cluster.mu.
func (st *Stage) wrap(in *stage.Instance) *Instance {
	w, ok := st.insts[in]
	if !ok {
		w = &Instance{stage: st, in: in}
		st.insts[in] = w
	}
	return w
}

// Instances implements core.StageControl: live, non-draining instances.
func (st *Stage) Instances() []core.Instance {
	c := st.cluster
	c.lock()
	defer c.unlock()
	for in := range st.insts {
		if in.Retired() {
			delete(st.insts, in)
		}
	}
	var out []core.Instance
	for _, in := range st.st.Active() {
		out = append(out, st.wrap(in))
	}
	return out
}

// Clone implements core.StageControl: instance boosting with work stealing.
func (st *Stage) Clone(bottleneck core.Instance) (core.Instance, error) {
	src, ok := bottleneck.(*Instance)
	if !ok || src.stage != st {
		return nil, fmt.Errorf("live: invalid clone source %s", bottleneck.Name())
	}
	c := st.cluster
	c.lock()
	defer c.unlock()
	clone, err := st.st.Clone(src.in)
	if err != nil {
		return nil, err
	}
	return st.wrap(clone), nil
}

// Withdraw implements core.StageControl: drain and release.
func (st *Stage) Withdraw(victim, target core.Instance) error {
	v, ok := victim.(*Instance)
	if !ok || v.stage != st {
		return fmt.Errorf("live: invalid withdraw victim %s", victim.Name())
	}
	var tgt *stage.Instance
	if t, ok := target.(*Instance); ok && t.stage == st {
		tgt = t.in
	}
	c := st.cluster
	c.lock()
	defer c.unlock()
	return st.st.Withdraw(v.in, tgt)
}

// Instance is a live service instance: a handle on one stage.Instance,
// taking the cluster lock around every call.
type Instance struct {
	stage *Stage
	in    *stage.Instance
}

// Name implements core.Instance.
func (in *Instance) Name() string { return in.in.Name() }

// StageName implements core.Instance.
func (in *Instance) StageName() string { return in.in.StageName() }

// QueueLen implements core.Instance: waiting plus in-service.
func (in *Instance) QueueLen() int {
	c := in.stage.cluster
	c.lock()
	defer c.unlock()
	return in.in.QueueLen()
}

// Level implements core.Instance.
func (in *Instance) Level() cmp.Level {
	c := in.stage.cluster
	c.lock()
	defer c.unlock()
	return in.in.Level()
}

// SetLevel implements core.Instance. A query in flight is re-timed: its
// remaining work runs at the new speed. Setting the level of a retired
// instance is a no-op.
func (in *Instance) SetLevel(l cmp.Level) error {
	c := in.stage.cluster
	c.lock()
	defer c.unlock()
	if in.in.Retired() {
		return nil
	}
	return in.in.SetLevel(l)
}

// Utilization implements core.Instance.
func (in *Instance) Utilization() float64 {
	c := in.stage.cluster
	c.lock()
	defer c.unlock()
	return in.in.Utilization()
}

// ResetUtilizationEpoch implements core.Instance.
func (in *Instance) ResetUtilizationEpoch() {
	c := in.stage.cluster
	c.lock()
	defer c.unlock()
	in.in.ResetUtilizationEpoch()
}

// Served returns the number of completed queries.
func (in *Instance) Served() uint64 {
	c := in.stage.cluster
	c.lock()
	defer c.unlock()
	return in.in.Served()
}

// Retired reports whether the instance has been withdrawn.
func (in *Instance) Retired() bool {
	c := in.stage.cluster
	c.lock()
	defer c.unlock()
	return in.in.Retired()
}

// Interface conformance.
var (
	_ core.System       = (*Cluster)(nil)
	_ core.StageControl = (*Stage)(nil)
	_ core.Instance     = (*Instance)(nil)
)
