package sim

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/maxmin"
	"armnet/internal/mobility"
	"armnet/internal/obs"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/runner"
	"armnet/internal/signal"
	"armnet/internal/strategy"
	"armnet/internal/topology"
)

// Scenario is one campus-family world: portables carrying QoS-bounded
// connections through the full resource manager, on the paper's campus
// wing or a grid office building. The plain scenario random-walks the
// portables and opens every connection synchronously; the optional
// Chaos and Overload parts add a fault plan and an overload policy with
// their auditors. Zero fields take the defaults of the scenario's
// family (campus, grid, chaos or overload), noted on each field.
type Scenario struct {
	// Seed drives the run's randomness. Every value is a valid, distinct
	// seed, including the zero value.
	Seed int64
	// Portables is the population size (24 campus, 80 grid, 16 chaos,
	// 40 overload).
	Portables int
	// Duration is the simulated workload time in seconds (3600 campus,
	// 1800 grid, 600 chaos, 420 overload).
	Duration float64
	// Dwell is the mean cell dwell time in seconds (180 campus, 150
	// grid, 120 chaos and overload).
	Dwell float64
	// Settle is the drain horizon after the workload stops, in which
	// leases expire and re-ADVERTISE repairs drift before the audit (60
	// with Chaos or Overload, else 0).
	Settle float64
	// Mode selects the advance-reservation strategy.
	Mode core.ReservationMode
	// BMin/BMax are the per-connection bandwidth bounds (32k/128k;
	// 160k/320k under Overload, a tenth of a campus downlink per
	// minimum, so nine busy cells saturate).
	BMin, BMax float64
	// Tth is the static/mobile threshold (0 = manager default; 60 s
	// under Overload, aggressive so the ramp produces adaptable static
	// connections whose excess the degrade cascades can reclaim).
	Tth float64
	// Pair names the allocator/admitter strategies; empty names select
	// the paper's (maxmin, table2).
	Pair StrategyPair
	// Rows and Cols, when either is non-zero, replace the campus wing
	// with a Rows×Cols office building (topology.BuildGrid).
	Rows, Cols int
	// Chaos, when set, opens every connection through the signaling
	// plane under a fault plan and audits the recovery invariants when
	// the run drains.
	Chaos *Chaos
	// Overload, when set, replaces the random walk with the load ramp
	// under an optional overload policy.
	Overload *Overload
	// Trace receives the run's JSONL event trace: every control-plane
	// event, one line each, stamped with (time, seq).
	Trace io.Writer
	// Obs arms the observability layer: the result carries the run's
	// deterministic instrument snapshot. Disarmed, it constructs nothing
	// and perturbs nothing, so traces are byte-identical either way.
	Obs bool
	// Spans receives the JSONL lifecycle-span export when Obs is set.
	Spans io.Writer
}

// CampusConfig and GridConfig name a Scenario by the preset that runs
// it (RunCampus, RunGrid).
type (
	CampusConfig = Scenario
	GridConfig   = Scenario
)

// Chaos is a scenario's fault part.
type Chaos struct {
	// Plan is a fault-plan spec in the faults.ParsePlan grammar; the
	// simulator rejects its live-only rules. Empty is valid.
	Plan string
}

// Overload is a scenario's load-ramp part: a population arriving
// staggered over 240 s, each portable opening two signaled connections
// sized so the offered load exceeds the capacity region, with bounded
// retries keeping the pressure on.
type Overload struct {
	// Policy is the overload policy in the overload.ParsePolicy grammar.
	// Empty runs the ramp with the subsystem disabled (the nil-policy
	// baseline); the literal "default" selects overload.Default().
	Policy string
}

// Fixed inputs of the signaled and overload workloads.
const (
	// holdLease bounds how long a crash-orphaned signaling hold may
	// outlive its session, in seconds.
	holdLease = 10
	// readvertisePeriod is the maxmin re-ADVERTISE interval that
	// repairs allocations corrupted by exhausted retries (Chaos only).
	readvertisePeriod = 5
	// rampWindow spreads the overload arrivals: portable i arrives at
	// rampWindow·i/N.
	rampWindow = 240
	// connsPer is how many connections each ramp portable opens.
	connsPer = 2
	// connLifetime closes each admitted ramp connection after this long,
	// creating the churn that lets cells de-escalate.
	connLifetime = 150
	// setupRetries and retryBackoff re-attempt a failed or shed ramp
	// setup.
	setupRetries = 2
	retryBackoff = 7
)

// familyDefaults holds each family's substitutes for zero fields.
var (
	campusDefaults   = Scenario{Portables: 24, Duration: 3600, Dwell: 180, BMin: 32e3, BMax: 128e3}
	gridDefaults     = Scenario{Portables: 80, Duration: 1800, Dwell: 150, BMin: 32e3, BMax: 128e3}
	chaosDefaults    = Scenario{Portables: 16, Duration: 600, Dwell: 120, Settle: 60, BMin: 32e3, BMax: 128e3}
	overloadDefaults = Scenario{Portables: 40, Duration: 420, Dwell: 120, Settle: 60, BMin: 160e3, BMax: 320e3, Tth: 60}
)

func (s Scenario) grid() bool { return s.Rows != 0 || s.Cols != 0 }

func (s Scenario) withDefaults() Scenario {
	d := campusDefaults
	switch {
	case s.Overload != nil:
		d = overloadDefaults
	case s.Chaos != nil:
		d = chaosDefaults
	case s.grid():
		d = gridDefaults
	}
	if s.Portables <= 0 {
		s.Portables = d.Portables
	}
	if s.Duration <= 0 {
		s.Duration = d.Duration
	}
	if s.Dwell <= 0 {
		s.Dwell = d.Dwell
	}
	if s.Settle <= 0 {
		s.Settle = d.Settle
	}
	if s.BMin <= 0 {
		s.BMin = d.BMin
	}
	if s.BMax <= 0 {
		s.BMax = d.BMax
	}
	if s.Tth <= 0 {
		s.Tth = d.Tth
	}
	return s
}

// Result summarizes one scenario run. Fault and overload figures stay
// zero unless the scenario armed that part.
type Result struct {
	CampusResult
	// Cells is the world's cell count; Events the discrete events
	// executed.
	Cells  int
	Events uint64
	// Snapshot is the deterministic instrument snapshot (Obs only).
	Snapshot *obs.Snapshot
	// Control is the allocator's control-plane work.
	Control strategy.ControlStats
	// Utilization is the mean committed downlink utilization over all
	// cells at the end of the run: (ΣMin + advance) / capacity, the same
	// ratio the overload controller escalates on.
	Utilization float64
	// FaultsInjected counts message faults fired plus component faults
	// executed (restorations included); Retransmits the control
	// messages resent after a loss; ReclaimedHolds the crash-orphaned
	// reservations reclaimed by lease expiry; ReadvertiseKicks the
	// connections kicked by the periodic re-ADVERTISE drift check.
	FaultsInjected, Retransmits, ReclaimedHolds, ReadvertiseKicks int64
	// ConvergenceGap is the final max |protocol − water-filling oracle|
	// rate distance in bits/s (Chaos only).
	ConvergenceGap float64
	// Sheds counts setups refused by stage or bucket (breaker
	// fast-fails excluded); DegradeCascades the connections forced to
	// b_min; BreakerTrips the transitions into the open state;
	// BreakerFastFails the setups refused while the breaker was open or
	// out of half-open probes; StageChanges the OverloadStage
	// transitions across all cells.
	Sheds, DegradeCascades, BreakerTrips, BreakerFastFails, StageChanges int64
	// BreakerPath is the ordered "from>to" breaker transition list —
	// the determinism witness for open/half-open/close cycling.
	BreakerPath []string
	// PeakStage is the highest stage any cell reached (Overload only).
	PeakStage string
	// Violations lists every invariant failure: degrade-before-drop
	// from the overload auditor, the recovery invariants from the fault
	// auditor, then the fault injector's errors (a fault naming an
	// unknown link, cell or zone). Empty on a clean run.
	Violations []string
}

// Run runs every scenario as an independent trial on a worker pool
// (workers <= 0 selects GOMAXPROCS). Results arrive in list order, and
// each scenario's trace and spans are buffered and written to its
// writers in list order, so results and output bytes are identical at
// any worker count even when scenarios share a writer.
func Run(ctx context.Context, scenarios []Scenario, workers int) ([]Result, runner.Stats, error) {
	type trial struct {
		res          Result
		trace, spans bytes.Buffer
	}
	trials, st, err := runner.Map(ctx, workers, len(scenarios), func(_ context.Context, i int) (*trial, error) {
		tr := &trial{}
		s := scenarios[i]
		if s.Trace != nil {
			s.Trace = &tr.trace
		}
		if s.Spans != nil {
			s.Spans = &tr.spans
		}
		var err error
		tr.res, err = runWorld(s)
		return tr, err
	})
	if err != nil {
		return nil, st, err
	}
	results := make([]Result, len(trials))
	for i, tr := range trials {
		results[i] = tr.res
		if w := scenarios[i].Trace; w != nil {
			if _, err := w.Write(tr.trace.Bytes()); err != nil {
				return nil, st, err
			}
		}
		if w := scenarios[i].Spans; w != nil {
			if _, err := w.Write(tr.spans.Bytes()); err != nil {
				return nil, st, err
			}
		}
	}
	return results, st, nil
}

// RunCampus runs one scenario — by default the paper's campus wing —
// and returns its campus metrics.
func RunCampus(s Scenario) (CampusResult, error) {
	rs, _, err := Run(context.Background(), []Scenario{s}, 1)
	if err != nil {
		return CampusResult{}, err
	}
	return rs[0].CampusResult, nil
}

// RunGrid runs one scenario on a grid office building; a zero Rows or
// Cols defaults to 4 rows or 6 columns. It exercises the integrated
// manager well beyond the paper's seven-cell wing.
func RunGrid(s Scenario) (Result, error) {
	if s.Rows == 0 {
		s.Rows = 4
	}
	if s.Cols == 0 {
		s.Cols = 6
	}
	rs, _, err := Run(context.Background(), []Scenario{s}, 1)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// vary returns one copy of s per value, each adjusted by set.
func vary[T any](s Scenario, values []T, set func(*Scenario, T)) []Scenario {
	out := make([]Scenario, len(values))
	for i, v := range values {
		out[i] = s
		set(&out[i], v)
	}
	return out
}

// Replicate returns n copies of s under per-replication seeds derived by
// runner.Seeds; replication 0 keeps s.Seed.
func (s Scenario) Replicate(n int) []Scenario {
	return vary(s, runner.Seeds(s.Seed, n), func(c *Scenario, seed int64) { c.Seed = seed })
}

// Modes returns s under each reservation mode in the comparison's fixed
// order: predictive, brute-force, none.
func (s Scenario) Modes() []Scenario {
	modes := []core.ReservationMode{core.ModePredictive, core.ModeBruteForce, core.ModeNone}
	return vary(s, modes, func(c *Scenario, m core.ReservationMode) { c.Mode = m })
}

// Thresholds returns s at each static/mobile threshold (DESIGN.md's T_th
// ablation; nil selects 30, 120, 300 and 900 s). Small T_th flips
// portables static quickly (fewer advance reservations, more
// unpredicted handoffs on re-moves); large T_th keeps everyone mobile.
func (s Scenario) Thresholds(tths []float64) []Scenario {
	if len(tths) == 0 {
		tths = []float64{30, 120, 300, 900}
	}
	return vary(s, tths, func(c *Scenario, tth float64) { c.Tth = tth })
}

// runWorld builds one self-contained world and runs it to
// Duration+Settle: environment, simulator, manager, collectors,
// auditors, recorder, workload. Concurrent calls share nothing.
func runWorld(s Scenario) (Result, error) {
	s = s.withDefaults()
	plan, err := s.Chaos.plan()
	if err != nil {
		return Result{}, err
	}
	pol, err := s.Overload.policy()
	if err != nil {
		return Result{}, err
	}
	var env *topology.Environment
	if s.grid() {
		env, err = topology.BuildGrid(s.Rows, s.Cols, 1.6e6)
	} else {
		env, err = topology.BuildCampus()
	}
	if err != nil {
		return Result{}, err
	}
	simulator := des.New()
	cfg := core.Config{
		Seed: s.Seed, Mode: s.Mode, Tth: s.Tth,
		Allocator: s.Pair.Allocator, Admitter: s.Pair.Admitter,
		Faults: plan, Overload: pol,
	}
	if s.Chaos != nil || s.Overload != nil {
		cfg.Signal = signal.Options{HoldLease: holdLease}
	}
	// Only the walk under faults re-ADVERTISEs; the overload ramp runs
	// without it, with or without a fault plan, as its pinned trace
	// records.
	if s.Chaos != nil && s.Overload == nil {
		cfg.Proto = maxmin.ProtocolOptions{ReadvertisePeriod: readvertisePeriod}
	}
	if s.Obs {
		cfg.Obs = &obs.Options{Spans: s.Spans}
	}
	mgr, err := core.NewManager(simulator, env, cfg)
	if err != nil {
		return Result{}, err
	}
	// The bus subscription order (collectors, overload auditor, fault
	// auditor, recorder) is part of what the pinned traces record.
	col := newCampusCollector(mgr.Bus)
	var ocol *overloadCollector
	if s.Overload != nil {
		ocol = newOverloadCollector(mgr.Bus)
	}
	var audits []func() []string
	if pol != nil {
		oaud := mgr.OverloadAuditor()
		audits = append(audits, func() []string { return oaud.Violations })
	}
	var faud *faults.Auditor
	if s.Chaos != nil {
		faud = newFaultAuditor(mgr)
		audits = append(audits, faud.CheckFinal)
	}
	var rec *eventbus.Recorder
	if s.Trace != nil {
		rec = eventbus.AttachRecorder(mgr.Bus, s.Trace)
	}
	req := qos.Request{
		Bandwidth: qos.Bounds{Min: s.BMin, Max: s.BMax},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: s.BMin / 4, Rho: s.BMin},
	}
	if s.Overload != nil {
		err = s.ramp(simulator, mgr, env, req)
	} else {
		err = s.walk(simulator, mgr, env, req)
	}
	if err != nil {
		return Result{}, err
	}
	end := s.Duration + s.Settle
	if err := simulator.RunUntil(end); err != nil {
		return Result{}, err
	}
	ctr := mgr.Met.Counter
	res := Result{
		CampusResult:     col.result(s.Mode),
		Cells:            env.Universe.Len(),
		Events:           simulator.Fired(),
		Utilization:      meanDownlinkUtil(env, mgr.Ledger()),
		FaultsInjected:   ctr.Get(core.CtrFaultsInjected),
		Retransmits:      ctr.Get(core.CtrRetransmits),
		ReclaimedHolds:   ctr.Get(core.CtrReclaimedHolds),
		ReadvertiseKicks: ctr.Get(core.CtrReadvertises),
		Sheds:            ctr.Get(core.CtrShedSetups),
		DegradeCascades:  ctr.Get(core.CtrDegradeCascades),
		BreakerTrips:     ctr.Get(core.CtrBreakerTrips),
		BreakerFastFails: ctr.Get(core.CtrBreakerFastFails),
	}
	for _, check := range audits {
		res.Violations = append(res.Violations, check()...)
	}
	if mgr.Inj != nil {
		res.Violations = append(res.Violations, mgr.Inj.Errors...)
	}
	if faud != nil {
		res.ConvergenceGap = faud.ConvergenceGap()
	}
	if ocol != nil {
		res.StageChanges, res.BreakerPath, res.PeakStage = ocol.stageChanges, ocol.breakerPath, ocol.peak
	}
	if rec != nil && rec.Err() != nil {
		return Result{}, rec.Err()
	}
	if mgr.Obs != nil {
		mgr.Obs.Finish(end)
		if err := mgr.Obs.SpanErr(); err != nil {
			return Result{}, err
		}
		res.Snapshot = mgr.Obs.Snapshot()
	}
	if mgr.Adpt != nil {
		res.Control = mgr.Adpt.Alloc.Stats()
	}
	return res, nil
}

// walk schedules the random walk: each portable's first move places it
// and opens one connection — synchronously, or through the signaling
// plane under Chaos, where setups race the fault plan hop by hop — and
// every later move is a handoff.
func (s Scenario) walk(simulator *des.Simulator, mgr *core.Manager, env *topology.Environment, req qos.Request) error {
	names := make([]string, s.Portables)
	for i := range names {
		if s.grid() {
			names[i] = fmt.Sprintf("p%03d", i)
		} else {
			names[i] = fmt.Sprintf("p%02d", i)
		}
	}
	walk, err := mobility.RandomWalk(env.Universe, names, s.Dwell, s.Duration, randx.New(s.Seed+1))
	if err != nil {
		return err
	}
	walk.Schedule(simulator, func(mv mobility.Move) {
		if mv.From == "" {
			if err := mgr.PlacePortable(mv.Portable, mv.To); err == nil {
				if s.Chaos != nil {
					_ = mgr.OpenConnectionAsync(mv.Portable, req, func(string, error) {})
				} else {
					_, _ = mgr.OpenConnection(mv.Portable, req)
				}
			}
			return
		}
		_ = mgr.HandoffPortable(mv.Portable, mv.To)
	})
	return nil
}
