package armnet

import (
	"armnet/internal/runner"
	"armnet/internal/sim"
)

// This file re-exports the experiment harnesses that regenerate the
// paper's tables and figures, so downstream users (and the repository's
// own cmd/paperfigs and benchmarks) can run them through the public API.

// Experiment configurations and results.
type (
	// Figure4Config / Figure4Result: §7.1 office next-cell prediction on
	// the calibrated ECE-building trace.
	Figure4Config = sim.Figure4Config
	Figure4Result = sim.Figure4Result

	// Figure5Config / Figure5Result: §7.1 meeting-room reservation
	// comparison (brute force vs aggregation vs booking calendar).
	Figure5Config = sim.Figure5Config
	Figure5Result = sim.Figure5Result
	Fig5Algorithm = sim.Fig5Algorithm

	// Figure6Config / Figure6Result: §7.2 probabilistic default
	// reservation P_d/P_b tradeoff.
	Figure6Config = sim.Figure6Config
	Figure6Result = sim.Figure6Result
	Figure6Curve  = sim.Figure6Curve

	// Table2Config / Table2Result: the admission-test rows.
	Table2Config = sim.Table2Config
	Table2Result = sim.Table2Result

	// Theorem1Config / Theorem1Result: event-driven maxmin convergence.
	Theorem1Config = sim.Theorem1Config
	Theorem1Result = sim.Theorem1Result

	// Figure2Config / Figure2Result: lounge handoff-activity profile.
	Figure2Config = sim.Figure2Config
	Figure2Result = sim.Figure2Result

	// Scenario / ScenarioResult: one campus-family world (the campus
	// wing or a grid building, random walk or overload ramp, optional
	// fault plan, overload policy, strategy pair and trace/obs sinks) and
	// its outcome. CampusResult is the drop/block/latency summary every
	// result embeds. Scenario's Replicate, Modes, Thresholds and Roster
	// methods build the replication, mode-comparison, T_th and arena
	// lists that RunScenarios runs.
	Scenario       = sim.Scenario
	ScenarioResult = sim.Result
	CampusResult   = sim.CampusResult
	// StrategyPair names one allocator/admitter combination of the arena.
	StrategyPair = sim.StrategyPair

	// BoundsConfig / BoundsResult: §2.1 loose-vs-rigid QoS quantified.
	BoundsConfig = sim.BoundsConfig
	BoundsResult = sim.BoundsResult

	// CorridorResult: §6.1 linear-movement prediction accuracy.
	CorridorResult = sim.CorridorResult

	// RunStats reports trial counts, wall time and speedup for the
	// parallel experiment runners.
	RunStats = runner.Stats
)

// Figure 5 algorithm selectors.
const (
	AlgBruteForce  = sim.AlgBruteForce
	AlgAggregation = sim.AlgAggregation
	AlgMeetingRoom = sim.AlgMeetingRoom
)

// Experiment runners.
var (
	RunFigure2           = sim.RunFigure2
	RunFigure4           = sim.RunFigure4
	RunFigure5           = sim.RunFigure5
	RunFigure5Comparison = sim.RunFigure5Comparison
	RunFigure6           = sim.RunFigure6
	RunFigure6Sweep      = sim.RunFigure6Sweep
	RunTable2            = sim.RunTable2
	RunTheorem1          = sim.RunTheorem1
	// RunScenarios runs a scenario list over a worker pool; results and
	// trace/span bytes are identical at any worker count (workers <= 0
	// selects GOMAXPROCS). RunCampus and RunGrid run one scenario on the
	// campus wing or a grid building; RenderArena renders a roster's
	// results as the stable comparative table.
	RunScenarios = sim.Run
	RunCampus    = sim.RunCampus
	RunGrid      = sim.RunGrid
	RenderArena  = sim.RenderArena
	RunBounds    = sim.RunBounds
	RunCorridor  = sim.RunCorridor
	// ErlangB is the analytic blocking formula used to validate the
	// Figure 6 simulator.
	ErlangB = sim.ErlangB

	// Parallel experiment runners: independent trials fanned across a
	// worker pool with deterministic replication — the same seed yields
	// bit-identical results at any worker count (workers <= 0 selects
	// GOMAXPROCS).
	RunTheorem1Parallel = sim.RunTheorem1Parallel
	// SplitSeed derives decorrelated per-trial seeds from a master seed;
	// TrialSeeds returns the first n of them (trial 0 keeps the master).
	SplitSeed  = runner.SplitSeed
	TrialSeeds = runner.Seeds
)
