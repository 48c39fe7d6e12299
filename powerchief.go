// Package powerchief is a reproduction of "PowerChief: Intelligent Power
// Allocation for Multi-Stage Applications to Improve Responsiveness on Power
// Constrained CMP" (Yang, Chen, Riaz, Luan, Tang, Mars — ISCA 2017).
//
// PowerChief is a runtime framework for multi-stage user-facing applications
// running under a hard chip power budget. It monitors per-instance latency
// statistics through a service/query joint design, identifies the bottleneck
// service instance with a metric combining history and realtime queue length
// (L·q̄ + s̄), adaptively chooses between frequency boosting and instance
// boosting by estimating the expected delay of each, and recycles power from
// the fastest instances to fund the boost — all without exceeding the budget.
//
// This package is the public facade: it exposes the application models, the
// control policies, the scenario runner on the deterministic discrete-event
// engine, and the experiment drivers that regenerate every table and figure
// of the paper's evaluation. The building blocks live under internal/:
//
//   - internal/sim      deterministic discrete-event engine
//   - internal/cmp      CMP model: DVFS ladder, power model, chip budget
//   - internal/stage    stages, service instances, dispatchers, boosting
//   - internal/query    the extended query structure (joint design)
//   - internal/core     the Command Center: identifier, decision engine,
//     power reallocator, policies, budget-domain hierarchy
//   - internal/arbiter  cross-member budget arbitration (multi-tenant and
//     fleet re-granting share one planner)
//   - internal/workload Poisson/trace load generation
//   - internal/harness  scenario runner and per-figure experiment drivers
//   - internal/live     the DES paced to the wall clock (same policies)
//   - internal/rpc      minimal JSON-RPC used by the distributed prototype
//
// # Quick start
//
//	res, err := powerchief.Run(powerchief.Scenario{
//		Name:     "sirius-high",
//		App:      powerchief.Sirius(),
//		Level:    powerchief.MidLevel,
//		Budget:   13.56,
//		Policy:   powerchief.PowerChiefPolicy(),
//		Source:   powerchief.ConstantLoad(powerchief.HighLoad),
//		Duration: 900 * time.Second,
//	})
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-vs-measured record.
package powerchief

import (
	"io"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/workload"
)

// Core aliases: the facade re-exports the library's working types so a
// single import serves typical use.
type (
	// App is a multi-stage application definition.
	App = app.App
	// StageProfile describes one processing stage of an App.
	StageProfile = app.StageProfile
	// WorkModel is a lognormal service-demand distribution.
	WorkModel = app.WorkModel

	// Scenario describes one experiment run on the discrete-event engine.
	Scenario = harness.Scenario
	// Result carries a run's collected metrics.
	Result = harness.Result

	// Policy is a control policy invoked at every adjust interval.
	Policy = core.Policy
	// Config carries the control-loop parameters (Table 2 / Table 3).
	Config = core.Config

	// Level indexes the discrete DVFS ladder (1.2–2.4 GHz in 0.1 steps).
	Level = cmp.Level
	// Watts expresses power.
	Watts = cmp.Watts

	// LoadLevel names the evaluation's load levels (low/medium/high).
	LoadLevel = workload.Level
	// Source yields the instantaneous arrival rate over time.
	Source = workload.Source

	// BudgetDomain is one node of the hierarchical power-budget tree: the
	// chip-level root delegates per-tenant grants to child domains, and
	// every SetBudget preserves Σ child grants ≤ parent budget.
	BudgetDomain = core.BudgetDomain

	// Tenant is one application's slice of a multi-tenant scenario.
	Tenant = harness.Tenant
	// MultiScenario describes a multi-tenant arbitration run: several
	// tenants, one chip budget, an optional cross-app arbiter.
	MultiScenario = harness.MultiScenario
	// MultiResult carries a multi-tenant run's per-tenant and combined
	// metrics plus the budget-invariant audit.
	MultiResult = harness.MultiResult
	// TenantResult is one tenant's slice of a MultiResult.
	TenantResult = harness.TenantResult
)

// Frequency ladder constants.
const (
	// MinLevel is the ladder floor (1.2 GHz).
	MinLevel = Level(0)
	// MidLevel is the medial 1.8 GHz level of the stage-agnostic baseline.
	MidLevel = cmp.MidLevel
	// MaxLevel is the ladder top (2.4 GHz).
	MaxLevel = cmp.MaxLevel
)

// Load levels.
const (
	LowLoad    = workload.Low
	MediumLoad = workload.Medium
	HighLoad   = workload.High
)

// Sirius returns the intelligent-personal-assistant application
// (ASR → IMM → QA).
func Sirius() App { return app.Sirius() }

// NLP returns the Senna natural-language pipeline (POS → PSG → SRL).
func NLP() App { return app.NLP() }

// WebSearch returns the replicated-leaf search application (leaf pool →
// aggregator).
func WebSearch() App { return app.WebSearch() }

// WebSearchFanOut returns the sharded-index search variant whose leaf stage
// fans every query out to all shards.
func WebSearchFanOut() App { return app.WebSearchFanOut() }

// AppByName resolves a built-in application ("sirius", "nlp", "websearch").
func AppByName(name string) (App, error) { return app.ByName(name) }

// DefaultConfig returns the paper's Table 2 control configuration: the
// expected-delay metric, 1 s balance threshold, 150 s withdraw interval and
// the 20% withdraw utilization threshold.
func DefaultConfig() Config { return core.DefaultConfig() }

// PowerChiefPolicy returns the full adaptive policy (bottleneck
// identification, adaptive boosting, dynamic power reallocation, instance
// withdraw) with the default configuration.
func PowerChiefPolicy() func() Policy {
	return func() Policy { return core.NewPowerChief(core.DefaultConfig()) }
}

// FreqBoostPolicy returns the pure frequency-boosting baseline.
func FreqBoostPolicy() func() Policy {
	return func() Policy { return core.NewFreqBoost(core.DefaultConfig()) }
}

// InstBoostPolicy returns the pure instance-boosting baseline.
func InstBoostPolicy() func() Policy {
	return func() Policy { return core.NewInstBoost(core.DefaultConfig()) }
}

// BaselinePolicy returns the stage-agnostic static allocation (no runtime
// control).
func BaselinePolicy() func() Policy {
	return func() Policy { return core.Static{} }
}

// PegasusPolicy returns the Pegasus-style stage-agnostic QoS power saver for
// the given latency target.
func PegasusPolicy(qos time.Duration) func() Policy {
	return func() Policy { return core.NewPegasus(qos) }
}

// SaverPolicy returns PowerChief's stage-aware QoS power-conservation mode
// for the given latency target.
func SaverPolicy(qos time.Duration) func() Policy {
	return func() Policy { return core.NewPowerChiefSaver(qos, core.DefaultConfig()) }
}

// PolicyByName resolves a policy constructor by its experiment name:
// "baseline", "freq-boost", "inst-boost", "powerchief"; "pegasus" and
// "saver" need a QoS target and are resolved by PolicyByNameQoS.
func PolicyByName(name string) (func() Policy, bool) {
	switch name {
	case "baseline":
		return BaselinePolicy(), true
	case "freq-boost":
		return FreqBoostPolicy(), true
	case "inst-boost":
		return InstBoostPolicy(), true
	case "powerchief":
		return PowerChiefPolicy(), true
	default:
		return nil, false
	}
}

// PolicyByNameQoS resolves the QoS power-conservation policies.
func PolicyByNameQoS(name string, qos time.Duration) (func() Policy, bool) {
	switch name {
	case "pegasus":
		return PegasusPolicy(qos), true
	case "saver", "powerchief-saver":
		return SaverPolicy(qos), true
	default:
		return nil, false
	}
}

// ConstantLoad builds a Source factory that pins a constant utilization of
// the scenario's reference capacity.
func ConstantLoad(level LoadLevel) func(refCapacityQPS float64) Source {
	return func(capacity float64) Source {
		return workload.Constant(workload.RateForUtilization(capacity, level.Utilization()))
	}
}

// NewRootDomain creates the top of a budget hierarchy owning the chip-level
// cap.
func NewRootDomain(name string, budget Watts) *BudgetDomain {
	return core.NewRootDomain(name, budget)
}

// ProportionalArbiter returns the cross-app arbitration policy that grants
// budget in proportion to each tenant's QoS slowdown (Eq. 1 metric over its
// latency target).
func ProportionalArbiter() func() Policy {
	return func() Policy { return arbiter.New(arbiter.Proportional{}) }
}

// FairnessArbiter returns the FastCap-style fairness-weighted arbitration
// policy; alpha tunes how hard sustained slowdown is penalized (2 is the
// usual choice).
func FairnessArbiter(alpha float64) func() Policy {
	return func() Policy { return arbiter.New(arbiter.Fairness{Alpha: alpha}) }
}

// RunMulti executes a multi-tenant scenario: one PowerChief loop per tenant
// inside its budget domain, with the arbiter re-granting between them.
func RunMulti(sc MultiScenario) (*MultiResult, error) { return harness.RunMulti(sc) }

// Run executes a scenario to completion on the deterministic discrete-event
// engine and returns its metrics.
func Run(sc Scenario) (*Result, error) { return harness.Run(sc) }

// Improvement returns baseline/measured latency ratios (average, P99) — the
// y-axis of the paper's improvement figures.
func Improvement(baseline, measured *Result) (avg, p99 float64) {
	return harness.Improvement(baseline, measured)
}

// WriteResult renders one run's summary line to w.
func WriteResult(w io.Writer, r *Result) error { return harness.WriteResult(w, r) }
