package main

import (
	"time"

	"powerchief/internal/controlplane"
	"powerchief/internal/core"
)

// timedAdjuster wraps the control loop's Adjuster: one span and one host
// duration per control tick (a fleet epoch is the fleet's tick). The loop
// calls Adjust from one goroutine at a time.
type timedAdjuster struct {
	inner controlplane.Adjuster
	tr    *tracer
	name  string
	// after, when set, runs after each tick, outside the timed span.
	after func(core.BoostOutcome, error)

	ticks int64
	durs  []time.Duration
}

func (a *timedAdjuster) Adjust(p core.Policy) (core.BoostOutcome, error) {
	a.ticks++
	a.tr.begin(a.name, a.ticks)
	start := time.Now()
	out, err := a.inner.Adjust(p)
	a.durs = append(a.durs, time.Since(start))
	a.tr.end()
	if a.after != nil {
		a.after(out, err)
	}
	return out, err
}

// timedPolicy wraps the core.Policy the loop hands to the Adjuster, so the
// policy's decide-and-actuate call is a child span of the tick. It forwards
// the decision tap the loop attaches through a type assertion.
type timedPolicy struct {
	inner core.Policy
	tr    *tracer
	name  string
	calls int64
	// inside is true while the inner policy runs; last is the host time of
	// the most recent call.
	inside bool
	last   time.Duration
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Adjust(sys core.System, agg *core.Aggregator) core.BoostOutcome {
	p.calls++
	p.tr.begin(p.name, p.calls)
	p.inside = true
	start := time.Now()
	out := p.inner.Adjust(sys, agg)
	p.last = time.Since(start)
	p.inside = false
	p.tr.end()
	return out
}

// SetTap implements core.TapSetter for policies that record decisions.
func (p *timedPolicy) SetTap(tap core.DecisionTap) {
	if ts, ok := p.inner.(core.TapSetter); ok {
		ts.SetTap(tap)
	}
}

// countingTap forwards decision records and counts the plans that carried
// at least one action.
type countingTap struct {
	inner    core.DecisionTap
	frames   int
	nonEmpty int
}

func (t *countingTap) RecordDecision(rec core.DecisionRecord) {
	t.frames++
	if len(rec.Plan) > 0 {
		t.nonEmpty++
	}
	t.inner.RecordDecision(rec)
}
