package stage

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stats"
)

// queued pairs a query with the virtual time it entered this instance's
// queue. The same query object can sit in several instance queues at once
// when the stage fans out.
type queued struct {
	q     *query.Query
	enter time.Duration
}

// Instance is one service instance: a worker pinned to a physical core,
// serving its own FIFO queue at the core's frequency. Each instance measures
// the queuing and serving time of every query it processes and appends them
// to the query (the joint design), and tracks its own busy time for the
// withdraw rule.
type Instance struct {
	stage  *Stage
	name   string
	branch int // fan-out branch index (stable per instance)

	core    cmp.CoreID
	level   cmp.Level
	boosted bool // launched by an instance boost (clone)

	queue      []queued // FIFO; the waiting queries are queue[head:]
	head       int
	serving    queued // the in-flight query; serving.q is nil when idle
	serveStart time.Duration
	serveEnd   *sim.Event
	endAt      time.Duration // scheduled completion time of the in-flight query
	completeFn func()        // in.complete, bound once so scheduling it does not allocate

	busy   *stats.BusyTracker
	served uint64

	draining bool
	retired  bool
}

func newInstance(st *Stage, name string, branch int, core cmp.CoreID, level cmp.Level) *Instance {
	in := &Instance{
		stage:  st,
		name:   name,
		branch: branch,
		core:   core,
		level:  level,
		busy:   stats.NewBusyTracker(),
	}
	in.completeFn = in.complete
	// The utilization epoch starts at creation: a freshly cloned instance
	// must not look idle for the part of the withdraw interval that
	// predates it.
	in.busy.ResetEpoch(st.sys.eng.Now())
	return in
}

// Name returns the instance signature, e.g. "QA_2".
func (in *Instance) Name() string { return in.name }

// Stage returns the owning stage.
func (in *Instance) Stage() *Stage { return in.stage }

// StageName returns the owning stage's name.
func (in *Instance) StageName() string { return in.stage.spec.Name }

// Core returns the physical core the instance is pinned to.
func (in *Instance) Core() cmp.CoreID { return in.core }

// Level returns the instance's current frequency level.
func (in *Instance) Level() cmp.Level { return in.level }

// Power returns the power the instance's core currently draws.
func (in *Instance) Power() cmp.Watts { return in.stage.sys.chip.Model().Power(in.level) }

// QueueLen returns the realtime load: queued queries plus the one in
// service. This is the L of the paper's latency metric (Equation 1).
func (in *Instance) QueueLen() int {
	n := len(in.queue) - in.head
	if in.serving.q != nil {
		n++
	}
	return n
}

// waiting returns the queued queries, oldest first.
func (in *Instance) waiting() []queued { return in.queue[in.head:] }

// Served returns the number of queries this instance completed.
func (in *Instance) Served() uint64 { return in.served }

// Draining reports whether the instance is being withdrawn.
func (in *Instance) Draining() bool { return in.draining }

// Retired reports whether the instance has been fully withdrawn.
func (in *Instance) Retired() bool { return in.retired }

// Utilization returns the fraction of the current withdraw epoch the
// instance spent serving queries.
func (in *Instance) Utilization() float64 {
	return in.busy.Utilization(in.stage.sys.eng.Now())
}

// ResetUtilizationEpoch starts a new withdraw-interval accounting epoch.
func (in *Instance) ResetUtilizationEpoch() {
	in.busy.ResetEpoch(in.stage.sys.eng.Now())
}

// enqueue adds q to the instance queue and starts service if idle.
func (in *Instance) enqueue(q *query.Query) {
	if in.retired {
		panic(fmt.Sprintf("stage: enqueue on retired instance %s", in.name))
	}
	if len(in.queue) == cap(in.queue) && in.head >= len(in.queue)/2 {
		// Reclaim the served prefix rather than grow the array.
		n := copy(in.queue, in.queue[in.head:])
		clear(in.queue[n:])
		in.queue, in.head = in.queue[:n], 0
	}
	in.queue = append(in.queue, queued{q: q, enter: in.stage.sys.eng.Now()})
	in.maybeStart()
}

// maybeStart begins serving the head of the queue when the instance is idle.
func (in *Instance) maybeStart() {
	if in.serving.q != nil || in.head == len(in.queue) || in.retired {
		return
	}
	in.serving = in.queue[in.head]
	in.queue[in.head] = queued{}
	if in.head++; in.head == len(in.queue) {
		in.queue, in.head = in.queue[:0], 0
	}
	now := in.stage.sys.eng.Now()
	in.serveStart = now
	in.busy.SetBusy(now)
	d := in.serveTime(in.serving.q)
	in.endAt = now + d
	in.serveEnd = in.stage.sys.eng.Schedule(d, in.completeFn)
}

// serveTime maps the query's intrinsic demand to wall time at the current
// frequency via the service's offline profile.
func (in *Instance) serveTime(q *query.Query) time.Duration {
	work := q.WorkAt(in.stage.index, in.branch)
	ratio := in.stage.spec.Profile.ExecRatio(in.level)
	d := time.Duration(float64(work) * ratio)
	if d < time.Nanosecond {
		d = time.Nanosecond // every query costs something
	}
	return d
}

// complete finishes the in-flight query: measure, record, hand back to the
// stage, and pull the next query.
func (in *Instance) complete() {
	item := in.serving
	if item.q == nil {
		panic(fmt.Sprintf("stage: completion on idle instance %s", in.name))
	}
	now := in.stage.sys.eng.Now()
	in.serving = queued{}
	in.serveEnd = nil
	in.served++

	rec := query.Record{
		Query:      item.q.ID,
		Stage:      in.stage.spec.Name,
		Instance:   in.name,
		QueueEnter: item.enter,
		ServeStart: in.serveStart,
		ServeEnd:   now,
		Level:      int(in.level),
		Boosted:    in.boosted,
	}
	item.q.Append(rec)

	if in.head == len(in.queue) {
		in.busy.SetIdle(now)
	}
	if in.draining && in.head == len(in.queue) {
		in.finalizeWithdraw()
	} else {
		in.maybeStart()
	}
	in.stage.queryDone(item.q)
}

// SetLevel performs a DVFS transition on the instance's core. If a query is
// in flight, its remaining work is re-timed at the new speed (the Haswell
// on-chip regulators make the transition itself sub-microsecond, which the
// model treats as instantaneous). Raising the level fails when the chip
// budget has no headroom.
func (in *Instance) SetLevel(l cmp.Level) error {
	if in.retired {
		return fmt.Errorf("stage: DVFS on retired instance %s", in.name)
	}
	if l == in.level {
		return nil
	}
	if err := in.stage.sys.chip.SetLevel(in.core, l); err != nil {
		return err
	}
	old := in.level
	in.level = l
	if in.serving.q != nil {
		now := in.stage.sys.eng.Now()
		remaining := in.endAt - now
		if remaining < 0 {
			remaining = 0
		}
		oldRatio := in.stage.spec.Profile.ExecRatio(old)
		newRatio := in.stage.spec.Profile.ExecRatio(l)
		scaled := time.Duration(float64(remaining) * newRatio / oldRatio)
		in.endAt = now + scaled
		in.serveEnd = in.stage.sys.eng.Reschedule(in.serveEnd, scaled)
	}
	return nil
}

// finalizeWithdraw releases the instance's core and detaches it from the
// stage. Only reachable when the instance is idle and draining.
func (in *Instance) finalizeWithdraw() {
	if in.QueueLen() != 0 {
		panic(fmt.Sprintf("stage: finalizeWithdraw on busy instance %s", in.name))
	}
	in.retired = true
	in.busy.SetIdle(in.stage.sys.eng.Now())
	if err := in.stage.sys.chip.Release(in.core); err != nil {
		panic(fmt.Sprintf("stage: releasing core of %s: %v", in.name, err))
	}
	in.stage.remove(in)
}
