package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/mobility"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/sim"
	"armnet/internal/testnet"
	"armnet/internal/topology"
)

// workload is one family of generated inputs. A run replays the same
// replication set, seeds runner.Seeds(workload seed, reps), pass after
// pass until its time is up, so the work done depends on the seed alone.
type workload struct {
	name string
	reps int
	// exec runs one replication. Everything before the timed region is
	// charged to setup. A non-nil layer sample arms the traced run.
	exec func(seed int64, ls *layerSample) (repResult, error)
	// harness runs the same replication through the repository's own
	// harness, the oracle the benchmark's own wiring must agree with.
	harness func(seed int64) (harnessView, error)
}

// repResult is one execution of one replication.
type repResult struct {
	setup, run time.Duration
	// portableSecs is the simulated portable-seconds the run covered.
	portableSecs float64
	// setups counts committed connection setups plus successful handoffs.
	setups int64
	// ops counts the control operations attempted; opUS holds their host
	// latency samples in microseconds.
	ops  int64
	opUS []float64
	out  outcome
	view harnessView
	// oracle describes a disagreement with the repository's harness;
	// empty when they agree or when the execution was not compared.
	oracle string
	// errs lists harness errors and audit violations.
	errs []string
	// verdict counts of the paper's two rates.
	handoffs, drops, requests, blocks int64
	ls                                *layerSample
	// cal is the calibration factor the host times were scaled by.
	cal float64
}

// scale multiplies every host-time reading of the execution by f.
func (r *repResult) scale(f float64) {
	r.cal = f
	r.setup = scaleDur(r.setup, f)
	r.run = scaleDur(r.run, f)
	scaleUS(r.opUS, f)
	if r.ls != nil {
		r.ls.scale(f)
	}
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func scaleUS(us []float64, f float64) {
	for i := range us {
		us[i] *= f
	}
}

// outcome is the simulated result of one replication. Its digest must
// not move when only host speed changes.
type outcome struct {
	Setups, Blocks, Handoffs, Drops int64
	Events                          uint64
	Messages                        int
	// Live-plane fields (zero on the sim workloads).
	Frames, FrameDrops, Sessions, Rollbacks, Skipped int
	Trace                                            uint64
}

// harnessView is what a replication and its oracle must agree on.
type harnessView struct {
	summary string
	// trace is the controller trace, compared line by line when set.
	trace []byte
}

func (v harnessView) diff(o harnessView) string {
	if v.summary != o.summary {
		return fmt.Sprintf("summary %q, oracle %q", v.summary, o.summary)
	}
	if v.trace != nil || o.trace != nil {
		return testnet.DiffTraces(v.trace, o.trace)
	}
	return ""
}

var workloads = []*workload{
	{name: "campus-dense", reps: 24, exec: campusDense.exec, harness: campusDense.harness},
	{name: "grid-sparse", reps: 8, exec: gridSparse.exec, harness: gridSparse.harness},
	{name: "live-loopback", reps: 32, exec: liveLoopback.exec, harness: liveLoopback.harness},
}

func lookup(name string) (*workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// workLabel marks the timed region in the traced run's CPU profile, so
// the fold ignores set-up, checks and the benchmark's bookkeeping.
const workLabel = "perfbench"

func timed(traced bool, fn func() error) (time.Duration, error) {
	var err error
	start := time.Now()
	if traced {
		pprof.Do(context.Background(), pprof.Labels(workLabel, "work"), func(context.Context) { err = fn() })
	} else {
		err = fn()
	}
	return time.Since(start), err
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simSpec is a random-walk world run through core.Manager, wired as
// internal/sim wires its campus and grid harnesses: same portable
// names, request shape and seeds.
type simSpec struct {
	build      func() (*topology.Environment, error)
	portables  int
	nameFormat string
	dwell      float64
	duration   float64
	bmin, bmax float64
	mode       core.ReservationMode
	// grid selects sim.RunGrid as the oracle instead of sim.RunCampus.
	grid bool
}

var campusDense = simSpec{
	build: topology.BuildCampus, portables: 48, nameFormat: "p%02d",
	dwell: 60, duration: 900, bmin: 128e3, bmax: 512e3, mode: core.ModePredictive,
}

var gridSparse = simSpec{
	build:     func() (*topology.Environment, error) { return topology.BuildGrid(4, 6, 1.6e6) },
	portables: 80, nameFormat: "p%03d",
	dwell: 150, duration: 900, bmin: 32e3, bmax: 128e3, mode: core.ModePredictive, grid: true,
}

func (sp simSpec) request() qos.Request {
	return qos.Request{
		Bandwidth: qos.Bounds{Min: sp.bmin, Max: sp.bmax},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: sp.bmin / 4, Rho: sp.bmin},
	}
}

// walk generates a replication's mobility trace.
func (sp simSpec) walk(env *topology.Environment, seed int64) (*mobility.Trace, error) {
	names := make([]string, sp.portables)
	for i := range names {
		names[i] = fmt.Sprintf(sp.nameFormat, i)
	}
	return mobility.RandomWalk(env.Universe, names, sp.dwell, sp.duration, randx.New(seed+1))
}

func (sp simSpec) exec(seed int64, ls *layerSample) (repResult, error) {
	var r repResult
	start := time.Now()
	env, err := sp.build()
	if err != nil {
		return r, err
	}
	built := time.Now()
	trace, err := sp.walk(env, seed)
	if err != nil {
		return r, err
	}
	walked := time.Now()
	simulator := des.New()
	cfg := core.Config{Seed: seed, Mode: sp.mode}
	if ls != nil {
		cfg.Admitter, cfg.Allocator = tracedAdmitter, tracedAllocator
		active = ls
		defer func() { active = nil }()
	}
	mgr, err := core.NewManager(simulator, env, cfg)
	if err != nil {
		return r, err
	}
	if ls != nil {
		mgr.Bus.Subscribe(func(eventbus.Record) { ls.records++ })
	}
	req := sp.request()
	r.opUS = make([]float64, 0, 2*len(trace.Moves))
	op := func(t0 time.Time) time.Time {
		t1 := time.Now()
		r.opUS = append(r.opUS, float64(t1.Sub(t0))/float64(time.Microsecond))
		return t1
	}
	trace.Schedule(simulator, func(mv mobility.Move) {
		t0 := time.Now()
		if mv.From == "" {
			err := mgr.PlacePortable(mv.Portable, mv.To)
			t1 := op(t0)
			if err != nil {
				r.errs = append(r.errs, fmt.Sprintf("place %s: %v", mv.Portable, err))
				return
			}
			_, _ = mgr.OpenConnection(mv.Portable, req)
			op(t1)
			return
		}
		_ = mgr.HandoffPortable(mv.Portable, mv.To)
		op(t0)
	})
	r.setup = time.Since(start)
	r.run, err = timed(ls != nil, func() error { return simulator.RunUntil(sp.duration) })
	if err != nil {
		return r, err
	}

	aud := faults.Auditor{Ledger: mgr.Ledger(), LiveConns: mgr.ConnIDs}
	r.errs = append(r.errs, aud.CheckFinal()...)
	c := mgr.Met.Counter
	r.out = outcome{
		Setups:   c.Get(core.CtrNewAdmitted),
		Blocks:   c.Get(core.CtrNewBlocked),
		Handoffs: c.Get(core.CtrHandoffTried),
		Drops:    c.Get(core.CtrHandoffDropped),
		Events:   simulator.Fired(),
	}
	mm := mgr.Adpt.Alloc.Stats()
	r.out.Messages = mm.Messages
	r.handoffs, r.drops = r.out.Handoffs, r.out.Drops
	r.requests, r.blocks = c.Get(core.CtrNewRequested), r.out.Blocks
	r.view = sp.summary(sim.CampusResult{
		Handoffs:            r.handoffs,
		DropRate:            ratio(r.drops, r.handoffs),
		BlockRate:           ratio(r.blocks, r.requests),
		AdvanceReservations: c.Get(core.CtrAdvanceResv),
		PoolClaims:          c.Get(core.CtrPoolClaims),
	}, simulator.Fired())
	r.portableSecs = float64(sp.portables) * sp.duration
	r.setups = c.Get(core.CtrNewAdmitted) + c.Get(core.CtrHandoffOK)
	r.ops = int64(len(r.opUS))

	if ls != nil {
		for _, us := range r.opUS {
			ls.coreBusy += time.Duration(us * float64(time.Microsecond))
		}
		ls.coreOps += r.ops
		ls.coreOpUS = append(ls.coreOpUS, r.opUS...)
		ls.coreSetups += r.out.Setups
		ls.coreBlocks += r.out.Blocks
		ls.coreHandoffs += r.out.Handoffs
		ls.coreDrops += r.out.Drops
		ls.mmMessages += int64(mm.Messages)
		ls.mmSessions += int64(mm.Sessions)
		ls.mmRetransmits += int64(mm.Retransmits)
		ls.events += simulator.Fired()
		ls.dispatch = r.run - ls.coreBusy
		ls.topoBuild += built.Sub(start)
		ls.mobGen += walked.Sub(built)
		ls.moves += int64(len(trace.Moves))
	}
	r.ls = ls
	return r, nil
}

func (sp simSpec) harness(seed int64) (harnessView, error) {
	if sp.grid {
		res, err := sim.RunGrid(sim.GridConfig{
			Seed: seed, Rows: 4, Cols: 6, Portables: sp.portables,
			Duration: sp.duration, Dwell: sp.dwell, Mode: sp.mode,
		})
		if err != nil {
			return harnessView{}, err
		}
		return sp.summary(res.CampusResult, res.Events), nil
	}
	res, err := sim.RunCampus(sim.CampusConfig{
		Seed: seed, Portables: sp.portables, Duration: sp.duration, Dwell: sp.dwell,
		Mode: sp.mode, BMin: sp.bmin, BMax: sp.bmax,
	})
	if err != nil {
		return harnessView{}, err
	}
	return sp.summary(res, 0), nil
}

// summary renders the figures sim.RunCampus and sim.RunGrid report.
func (sp simSpec) summary(res sim.CampusResult, events uint64) harnessView {
	s := fmt.Sprintf("handoffs=%d drop=%v block=%v advance=%d pool=%d",
		res.Handoffs, res.DropRate, res.BlockRate, res.AdvanceReservations, res.PoolClaims)
	if sp.grid {
		s += fmt.Sprintf(" events=%d", events)
	}
	return harnessView{summary: s}
}

// liveSpec is a generated step script run by testnet.Run in
// ModeLoopback: every control hop is encoded as a wire frame, delivered
// to an in-process node agent, decoded and acknowledged.
type liveSpec struct {
	conns  int     // connections the script cycles over
	rounds int     // setup/handoff/handoff/close cycles per connection
	gap    float64 // simulated seconds between steps
	settle float64 // simulated seconds after the last step
}

// Two rounds make one execution long enough (about 0.13 s) that a burst
// of load from other tenants is averaged in, not the whole sample.
var liveLoopback = liveSpec{conns: 12, rounds: 2, gap: 0.2, settle: 2}

// liveCycle is the per-connection step order.
var liveCycle = []testnet.Op{testnet.OpSetup, testnet.OpHandoff, testnet.OpHandoff, testnet.OpClose}

// script generates a replication's steps. About one request in twelve
// asks for more than a cell's 1.6 Mb/s air link, so the abort path runs
// too; later steps of a connection that is not live are skipped.
func (lv liveSpec) script(seed int64) ([]testnet.Step, error) {
	env, err := topology.BuildCampus()
	if err != nil {
		return nil, err
	}
	cells := env.Universe.Cells()
	rng := randx.New(seed)
	n := lv.conns * lv.rounds * len(liveCycle)
	steps := make([]testnet.Step, 0, n)
	for i := 0; i < n; i++ {
		st := testnet.Step{
			At:   0.05 + lv.gap*float64(i),
			Op:   liveCycle[(i/lv.conns)%len(liveCycle)],
			Conn: fmt.Sprintf("c%02d", i%lv.conns),
		}
		if st.Op != testnet.OpClose {
			st.Cell = cells[rng.Intn(len(cells))].ID
			st.Host = rng.Intn(len(env.Hosts))
			st.Min = 64e3 + rng.Float64()*448e3
			st.Max = 3 * st.Min
			if rng.Intn(12) == 0 {
				st.Min, st.Max = 2e6, 2e6
			}
		}
		steps = append(steps, st)
	}
	return steps, nil
}

func (lv liveSpec) config(mode testnet.Mode, script []testnet.Step) testnet.Config {
	return testnet.Config{
		Mode: mode, Script: script, Lenient: true,
		// Without an explicit horizon testnet.Run stops at its 3 s
		// default and silently drops every later step.
		Horizon: script[len(script)-1].At + lv.settle,
	}
}

func (lv liveSpec) exec(seed int64, ls *layerSample) (repResult, error) {
	var r repResult
	start := time.Now()
	script, err := lv.script(seed)
	if err != nil {
		return r, err
	}
	cfg := lv.config(testnet.ModeLoopback, script)
	r.setup = time.Since(start)
	var res *testnet.Result
	r.run, err = timed(ls != nil, func() (err error) {
		res, err = testnet.Run(cfg)
		return err
	})
	if err != nil {
		return r, err
	}
	r.errs = append(r.errs, res.Violations...)
	r.portableSecs = float64(lv.conns) * cfg.Horizon
	r.setups = int64(res.Commits)
	r.ops = int64(len(script))
	// testnet.Run executes every step inside one call, so the per-step
	// latency is the replication's host time over its step count.
	r.opUS = []float64{float64(r.run) / float64(time.Microsecond) / float64(len(script))}
	r.out = outcome{
		Setups: int64(res.Commits), Blocks: int64(res.Aborted),
		Frames: res.FramesSent, FrameDrops: res.FrameDrops,
		Sessions: res.Sessions, Rollbacks: res.Rollbacks, Skipped: res.SkippedOps,
		Trace: fnv64(res.ControllerTrace),
	}
	v, err := attributeSessions(script, res.ControllerTrace)
	if err != nil {
		return r, err
	}
	if v.commits+v.aborts != int64(res.Commits+res.Aborted) {
		r.errs = append(r.errs, fmt.Sprintf("trace attributes %d sessions, run reports %d",
			v.commits+v.aborts, res.Commits+res.Aborted))
	}
	r.out.Handoffs, r.out.Drops = v.handoffs, v.drops
	r.handoffs, r.drops = v.handoffs, v.drops
	r.requests, r.blocks = v.requests, v.blocks
	r.view = liveView(res)

	if ls != nil {
		var ref *testnet.Result
		simRun, err := timed(false, func() (err error) {
			ref, err = testnet.Run(lv.config(testnet.ModeSim, script))
			return err
		})
		if err != nil {
			return r, err
		}
		if d := r.view.diff(liveView(ref)); d != "" {
			r.errs = append(r.errs, "loopback and sim controller traces differ: "+d)
		}
		ls.simRun += simRun
		ls.frames += int64(res.FramesSent)
		ls.frameDrops += int64(res.FrameDrops)
		ls.commits += int64(res.Commits)
		ls.aborts += int64(res.Aborted)
		ls.violations += int64(len(res.Violations))
		ls.records += int64(bytes.Count(res.ControllerTrace, []byte{'\n'}))
		ls.traceBytes += int64(len(res.ControllerTrace))
		for _, nt := range res.NodeTraces {
			ls.records += int64(bytes.Count(nt, []byte{'\n'}))
			ls.traceBytes += int64(len(nt))
		}
		ls.mobGen += r.setup
		ls.moves += v.handoffs
	}
	r.ls = ls
	return r, nil
}

func liveView(res *testnet.Result) harnessView {
	return harnessView{
		summary: fmt.Sprintf("commits=%d aborted=%d sessions=%d rollbacks=%d",
			res.Commits, res.Aborted, res.Sessions, res.Rollbacks),
		trace: res.ControllerTrace,
	}
}

// The oracle for live-loopback is the same script in ModeSim: no wire,
// and a controller trace that must match the loopback one byte for byte.
func (lv liveSpec) harness(seed int64) (harnessView, error) {
	script, err := lv.script(seed)
	if err != nil {
		return harnessView{}, err
	}
	res, err := testnet.Run(lv.config(testnet.ModeSim, script))
	if err != nil {
		return harnessView{}, err
	}
	return liveView(res), nil
}

// sessionVerdicts splits a live run's signaling sessions by the step
// that started them.
type sessionVerdicts struct {
	requests, blocks, handoffs, drops int64
	commits, aborts                   int64
}

// attributeSessions charges each signal-commit and signal-abort in a
// controller trace to the latest step of its connection at or before
// the event. A connection's steps are conns×gap apart and a session
// ends within one gap, so the attribution is exact.
func attributeSessions(script []testnet.Step, trace []byte) (sessionVerdicts, error) {
	var v sessionVerdicts
	byConn := make(map[string][]testnet.Step)
	for _, st := range script {
		byConn[st.Conn] = append(byConn[st.Conn], st)
	}
	for _, line := range bytes.Split(trace, []byte{'\n'}) {
		committed := bytes.Contains(line, []byte(`"type":"signal-commit"`))
		if !committed && !bytes.Contains(line, []byte(`"type":"signal-abort"`)) {
			continue
		}
		var rec struct {
			T  float64 `json:"t"`
			Ev struct {
				Conn string `json:"conn"`
			} `json:"ev"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return v, fmt.Errorf("controller trace: %w", err)
		}
		var step *testnet.Step
		for i, st := range byConn[rec.Ev.Conn] {
			if st.At <= rec.T {
				step = &byConn[rec.Ev.Conn][i]
			}
		}
		if step == nil {
			return v, fmt.Errorf("controller trace: session of %s at t=%g precedes its first step", rec.Ev.Conn, rec.T)
		}
		if committed {
			v.commits++
		} else {
			v.aborts++
		}
		switch step.Op {
		case testnet.OpSetup:
			v.requests++
			if !committed {
				v.blocks++
			}
		case testnet.OpHandoff:
			v.handoffs++
			if !committed {
				v.drops++
			}
		}
	}
	return v, nil
}
