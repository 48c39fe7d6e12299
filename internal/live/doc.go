// Package live is the real-time engine of the framework: the discrete-event
// service model of internal/stage, paced to the wall clock. A Cluster holds
// one stage.System on a sim.Engine whose virtual time is the wall time since
// start divided by Options.TimeScale. Every entry point (Submit, the
// core.System, StageControl and Instance methods, SetBudget) locks the
// cluster and first runs the engine up to that instant; one pacer goroutine
// sleeps until the next event is due and runs it. Serve times are therefore
// the model's exactly — work × ExecRatio(level), re-timed when the level
// changes mid-query — however hard the clock is compressed, and the
// identical Command Center policies (internal/core) drive the cluster
// through the same interfaces they use on the simulator.
//
// Arrivals come from the wall clock, so live runs are not deterministic;
// the live engine demonstrates the framework operating as a real runtime
// (as in the paper's prototype), while the DES produces the reproducible
// figures.
//
// Entry points: NewCluster builds the running system from StageSpec values;
// Cluster.Submit injects a query and OnComplete delivers it, records
// attached, after the cluster lock is released; StartController runs a
// core.Policy against the cluster on a fixed interval. internal/loadgen
// drives a Cluster as a benchmark target.
package live
