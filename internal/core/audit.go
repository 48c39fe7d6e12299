package core

import (
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/telemetry"
)

// AuditSetter is implemented by the policies that can narrate their
// decisions into a telemetry audit log. Callers attach a log with
//
//	if as, ok := policy.(AuditSetter); ok {
//		as.SetAudit(log)
//	}
//
// A nil log (the default) keeps every hook a single pointer test, so the
// control loop's cost and the simulator's determinism are unchanged when
// auditing is off.
type AuditSetter interface {
	SetAudit(*telemetry.AuditLog)
}

// auditIdentify records one bottleneck identification: the slowest ranked
// instance with the Equation 1 inputs (L, q̄, s̄) and the spread the
// balance threshold is compared against.
func auditIdentify(a *telemetry.AuditLog, now time.Duration, ranked []Ranked) {
	if !a.Enabled() || len(ranked) == 0 {
		return
	}
	bn := ranked[0]
	a.Record(telemetry.Event{
		Time:     now,
		Kind:     telemetry.EventIdentify,
		Stage:    bn.Stage.Name(),
		Instance: bn.Instance.Name(),
		QueueLen: bn.QueueLen,
		Queuing:  bn.Queuing,
		Serving:  bn.Serving,
		Metric:   bn.Metric,
		Spread:   Spread(ranked),
	})
}

// auditOutcome records what the decision engine did this interval: the
// chosen technique with the Equation 2/3 estimates that drove the choice,
// the actuation, and the power accounting after it.
func auditOutcome(a *telemetry.AuditLog, sys System, out BoostOutcome) {
	if !a.Enabled() {
		return
	}
	e := telemetry.Event{
		Time:          sys.Now(),
		Instance:      out.Target,
		TInst:         out.TInst,
		TFreq:         out.TFreq,
		OldLevel:      int(out.OldLevel),
		NewLevel:      int(out.NewLevel),
		NewInstance:   out.NewInstance,
		RecycledWatts: float64(out.Recycled),
		HeadroomWatts: float64(sys.Headroom()),
	}
	switch out.Kind {
	case BoostFrequency:
		e.Kind = telemetry.EventBoostFreq
	case BoostInstance:
		e.Kind = telemetry.EventBoostInst
	default:
		e.Kind = telemetry.EventBoostNone
	}
	a.Record(e)
}

// auditWithdraw records one executed instance withdraw.
func auditWithdraw(a *telemetry.AuditLog, now time.Duration, stage, victim, target string) {
	if !a.Enabled() {
		return
	}
	a.Record(telemetry.Event{
		Time:     now,
		Kind:     telemetry.EventWithdraw,
		Stage:    stage,
		Instance: victim,
		Target:   target,
	})
}

// recycle runs the engine's recycler. Against a PlanView the pass also
// marks a recycle span on the plan — the Executor emits the grouped recycle
// event once the donor steps actually apply.
func (e Engine) recycle(sys System, model cmp.PowerModel, donors []Instance, need cmp.Watts) cmp.Watts {
	pv, ok := sys.(*PlanView)
	if !ok {
		return e.Recycler.Recycle(model, donors, need)
	}
	start := pv.beginRecycle()
	recycled := e.Recycler.Recycle(model, donors, need)
	pv.endRecycle(start, recycled)
	return recycled
}
