// Command armsim runs an integrated resource-management scenario: a
// population of portables random-walks over a chosen topology while each
// holds a QoS-bounded connection; the full control loop (admission,
// prediction, advance reservation, adaptation, handoff) runs on the
// discrete-event simulator and the final metrics are printed.
//
// Usage:
//
//	armsim -topology campus -portables 24 -duration 3600 -mode predictive
//	armsim -topology figure4 -mode brute-force -seed 7
//	armsim -topology campus -replications 16 -parallel 8
//
// With -replications R the scenario runs R times under decorrelated seeds
// derived from -seed (replication 0 keeps it), fanned across -parallel
// workers. Replication is deterministic: the per-replication table is
// identical at any worker count; pool stats (wall time, speedup) print to
// stderr.
//
// With -trace FILE every control-plane event (admission decisions,
// handoffs, holds/commits/aborts, reservations, rate changes, …) is
// written to FILE as JSON Lines, stamped with simulated time and a
// per-run sequence number. Replications append in replication order, so
// the file is byte-identical at any -parallel value. Use -mobility-trace
// to replay a recorded CSV movement trace (see cmd/tracegen) instead of
// generating a random walk.
//
// With -fault-plan FILE the run executes a deterministic fault-injection
// schedule (see internal/faults for the grammar): control messages are
// dropped, duplicated, or delayed probabilistically, and components —
// links, cells, zone profile servers, the signaling plane — fail and
// recover at scheduled times. The plan's live-only rules (reorder,
// `on <link>`, partition, crash) are rejected before the run, and a fault
// naming an unknown link, cell or zone fails it. Connections open
// through the signaling plane so setups are exposed to message faults;
// tune it with -signal-timeout and -signal-retries:
//
//	armsim -topology campus -fault-plan chaos.plan -trace - -seed 1
//
// With -overload-policy FILE (or the literal "default") the staged
// overload-control subsystem is armed (see internal/overload for the
// policy grammar): per-cell utilization detection, degrade cascades,
// priority load shedding, and a signaling circuit breaker. The report
// then includes setups-shed, degrade-cascades, breaker-trips and
// breaker-fast-fails counters:
//
//	armsim -topology campus -overload-policy default -portables 48
//
// The strategy flags swap the paper's algorithms for registered rivals:
// -allocator selects the rate-allocation protocol (maxmin is the paper's
// §5.3.1 ADVERTISE/UPDATE protocol; erica is the single-round-trip
// explicit-rate scheme) and -admitter the admission control (table2 is
// the paper's test battery; measured is headroom-based measurement
// admission). -arena ignores -replications and instead runs every
// allocator/admitter pair head-to-head over the *identical* campus
// workload, printing a comparative table (utilization, drops, blocking,
// control overhead):
//
//	armsim -allocator erica -admitter measured -portables 24
//	armsim -arena -seed 1 -portables 24 -bmin 256e3 -bmax 1.2e6
//
// The observability flags arm the deterministic instrument and span
// layer (zero cost and zero perturbation when off): -summary prints the
// paper-§7-style results digest; -obs-snapshot/-obs-json write the
// merged instrument snapshot (Prometheus text / JSON, byte-identical at
// any -parallel value); -spans streams connection lifecycle spans as
// JSONL; -telemetry-addr serves a live wall-clock endpoint (/metrics,
// /healthz, /spans tail, /debug/pprof) while the replications run,
// lingering -telemetry-linger seconds after they finish:
//
//	armsim -replications 8 -parallel 4 -summary -obs-snapshot run.prom
//	armsim -telemetry-addr 127.0.0.1:9090 -replications 16 -telemetry-linger 60
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"armnet"
	"armnet/internal/mobility"
	"armnet/internal/randx"
	"armnet/internal/runner"
	"armnet/internal/stats"
)

func main() {
	topo := flag.String("topology", "campus", "topology: campus, figure4, meetingwing, corridor")
	portables := flag.Int("portables", 24, "number of portables")
	duration := flag.Float64("duration", 3600, "simulated seconds")
	dwell := flag.Float64("dwell", 180, "mean cell dwell time (s)")
	seed := flag.Int64("seed", 1, "random seed")
	modeName := flag.String("mode", "predictive", "reservation mode: predictive, brute-force, none")
	allocator := flag.String("allocator", "", "rate-allocation strategy (default maxmin, the paper's protocol); see armnet.Allocators")
	admitter := flag.String("admitter", "", "admission-control strategy (default table2, the paper's tests); see armnet.Admitters")
	arena := flag.Bool("arena", false, "run every allocator/admitter pair head-to-head over the identical campus workload and print the comparative table")
	topoFile := flag.String("topology-file", "", "build the environment from a JSON spec instead of a named topology")
	bmin := flag.Float64("bmin", 32e3, "connection b_min (bits/s)")
	bmax := flag.Float64("bmax", 128e3, "connection b_max (bits/s)")
	mobilityTrace := flag.String("mobility-trace", "", "replay a CSV mobility trace (see cmd/tracegen) instead of generating one")
	tracePath := flag.String("trace", "", "write the control-plane event stream as JSON Lines to this file (- for stdout)")
	faultPlan := flag.String("fault-plan", "", "inject faults from this plan file (drop/dup/delay rules and timed outages); connections then open through the signaling plane")
	overloadPolicy := flag.String("overload-policy", "", "arm staged overload control from this policy file (see internal/overload for the grammar); 'default' uses the built-in policy")
	signalTimeout := flag.Float64("signal-timeout", 0, "signaling setup deadline in seconds (0 = scale with route hop count)")
	signalRetries := flag.Int("signal-retries", 0, "per-hop control-message retransmission budget (0 = default)")
	replications := flag.Int("replications", 1, "independent scenario replications under derived seeds")
	parallel := flag.Int("parallel", 1, "worker count for replications (0 = GOMAXPROCS); output is identical at any worker count")
	obsFlag := flag.Bool("obs", false, "arm the deterministic observability layer (implied by the flags below)")
	obsSnapshot := flag.String("obs-snapshot", "", "write the merged instrument snapshot as Prometheus text to this file (- for stdout)")
	obsJSON := flag.String("obs-json", "", "write the merged instrument snapshot as JSON to this file (- for stdout)")
	spansPath := flag.String("spans", "", "write the JSONL connection-lifecycle spans to this file (- for stdout); replications append in order")
	summary := flag.Bool("summary", false, "print the paper-§7-style results summary derived from the merged snapshot")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live wall-clock telemetry on this address (/metrics, /healthz, /spans, /debug/pprof)")
	telemetryLinger := flag.Float64("telemetry-linger", 0, "keep the telemetry endpoint up this many wall-clock seconds after the run finishes")
	flag.Parse()

	sc := scenario{
		topo: *topo, topoFile: *topoFile,
		portables: *portables, duration: *duration, dwell: *dwell,
		modeName: *modeName, bmin: *bmin, bmax: *bmax,
		allocator: *allocator, admitter: *admitter, arena: *arena,
		mobilityPath: *mobilityTrace, tracePath: *tracePath,
		faultPath: *faultPlan, overloadPath: *overloadPolicy,
		sigTimeout: *signalTimeout, sigRetries: *signalRetries,
		obsSnapshotPath: *obsSnapshot, obsJSONPath: *obsJSON,
		spansPath: *spansPath, summary: *summary,
		telemetryAddr: *telemetryAddr, telemetryLinger: *telemetryLinger,
	}
	// Any consumer of the observability layer arms it.
	sc.obs = *obsFlag || sc.obsSnapshotPath != "" || sc.obsJSONPath != "" ||
		sc.spansPath != "" || sc.summary || sc.telemetryAddr != ""
	if err := run(sc, *seed, *replications, *parallel, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "armsim:", err)
		os.Exit(1)
	}
}

// scenario describes one armsim configuration. It carries only immutable
// inputs; every replication builds its own environment, network and trace
// so that concurrent trials share no mutable state.
type scenario struct {
	topo, topoFile string
	topoJSON       []byte // parsed per replication (envs are mutable)
	portables      int
	duration       float64
	dwell          float64
	modeName       string
	mode           armnet.ReservationMode
	bmin, bmax     float64
	allocator      string
	admitter       string
	arena          bool
	mobilityPath   string
	trace          *mobility.Trace // replayed read-only when set
	tracePath      string          // JSONL event-trace destination ("" = off)
	faultPath      string
	faults         *armnet.FaultPlan // parsed once; injectors only read it
	overloadPath   string
	overload       *armnet.OverloadPolicy // parsed once; controllers copy it
	sigTimeout     float64
	sigRetries     int

	// Observability outputs. obs is set when any of them is requested;
	// an armed layer changes nothing about the simulation (the event
	// trace stays byte-identical), it only adds exports.
	obs             bool
	obsSnapshotPath string
	obsJSONPath     string
	spansPath       string
	summary         bool
	telemetryAddr   string
	telemetryLinger float64
}

// prepare resolves the mode, loads the optional topology spec and replay
// trace once, and validates the inputs shared by every replication.
func (sc *scenario) prepare() error {
	sc.mode = armnet.ModePredictive
	switch sc.modeName {
	case "predictive":
	case "brute-force":
		sc.mode = armnet.ModeBruteForce
	case "none":
		sc.mode = armnet.ModeNone
	default:
		return fmt.Errorf("unknown mode %q", sc.modeName)
	}
	if sc.topoFile != "" {
		data, err := os.ReadFile(sc.topoFile)
		if err != nil {
			return err
		}
		sc.topoJSON = data
		sc.topo = sc.topoFile
	}
	if sc.faultPath != "" {
		f, err := os.Open(sc.faultPath)
		if err != nil {
			return err
		}
		sc.faults, err = armnet.ParseFaultPlan(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if sc.overloadPath != "" {
		if sc.overloadPath == "default" {
			def := armnet.DefaultOverloadPolicy()
			sc.overload = &def
		} else {
			f, err := os.Open(sc.overloadPath)
			if err != nil {
				return err
			}
			sc.overload, err = armnet.ParseOverloadPolicy(f)
			f.Close()
			if err != nil {
				return err
			}
		}
	}
	if sc.mobilityPath != "" {
		f, err := os.Open(sc.mobilityPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sc.trace, err = mobility.ReadCSV(f)
		if err != nil {
			return err
		}
		if d := sc.trace.Duration(); d > sc.duration {
			sc.duration = d
		}
	}
	return nil
}

// buildEnv constructs a fresh environment for one replication. Environments
// record portable placements, so they must never be shared across trials.
func (sc scenario) buildEnv() (*armnet.Environment, error) {
	if sc.topoJSON != nil {
		return armnet.EnvironmentFromJSON(bytes.NewReader(sc.topoJSON))
	}
	switch sc.topo {
	case "campus":
		return armnet.BuildCampus()
	case "figure4":
		return armnet.BuildFigure4("faculty", []string{"stu-a", "stu-b", "stu-c"})
	case "meetingwing":
		return armnet.BuildMeetingWing(1.6e6)
	case "corridor":
		return armnet.BuildCorridor(6, 1.6e6)
	default:
		return nil, fmt.Errorf("unknown topology %q", sc.topo)
	}
}

// replication is one finished trial: the network for reporting plus its
// optional JSONL event trace and observability exports.
type replication struct {
	net   *armnet.Network
	trace []byte
	snap  *armnet.ObsSnapshot
	spans []byte
}

// runOnce executes one self-contained replication under the given seed and
// returns the finished network for reporting.
func (sc scenario) runOnce(seed int64) (replication, error) {
	env, err := sc.buildEnv()
	if err != nil {
		return replication{}, err
	}
	cfg := armnet.Config{Seed: seed, Mode: sc.mode, Faults: sc.faults, Overload: sc.overload,
		Allocator: sc.allocator, Admitter: sc.admitter}
	cfg.Signal.Timeout = sc.sigTimeout
	cfg.Signal.MaxRetries = sc.sigRetries
	var spanBuf bytes.Buffer
	if sc.obs {
		opts := &armnet.ObsOptions{}
		if sc.spansPath != "" || sc.telemetryAddr != "" {
			opts.Spans = &spanBuf
		}
		cfg.Obs = opts
	}
	net, err := armnet.NewNetwork(env, cfg)
	if err != nil {
		return replication{}, err
	}
	var traceBuf bytes.Buffer
	var rec *armnet.EventRecorder
	if sc.tracePath != "" {
		rec = net.Trace(&traceBuf)
	}
	// Mobility: replay the recorded trace, or generate a random walk.
	trace := sc.trace
	if trace == nil {
		names := make([]string, sc.portables)
		for i := range names {
			names[i] = fmt.Sprintf("p%02d", i)
		}
		trace, err = mobility.RandomWalk(env.Universe, names, sc.dwell, sc.duration, randx.New(seed+1))
		if err != nil {
			return replication{}, err
		}
	}
	req := armnet.Request{
		Bandwidth: armnet.Bounds{Min: sc.bmin, Max: sc.bmax},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: armnet.TrafficSpec{Sigma: sc.bmin / 4, Rho: sc.bmin},
	}
	// Under a fault plan, connections open through the signaling plane so
	// setup messages are exposed to the plan's drop/dup/delay rules; the
	// instantaneous path stays the default because it keeps uninjected
	// traces byte-identical to earlier releases.
	open := func(portable string) { _, _ = net.OpenConnection(portable, req) }
	if !sc.faults.Empty() {
		open = func(portable string) {
			_ = net.OpenConnectionAsync(portable, req, func(string, error) {})
		}
	}
	for _, mv := range trace.Moves {
		mv := mv
		net.Schedule(mv.Time, func() {
			if mv.From == "" {
				if err := net.PlacePortable(mv.Portable, mv.To); err == nil {
					open(mv.Portable)
				}
				return
			}
			_ = net.HandoffPortable(mv.Portable, mv.To)
		})
	}
	if err := net.RunUntil(sc.duration); err != nil {
		return replication{}, err
	}
	if rec != nil && rec.Err() != nil {
		return replication{}, rec.Err()
	}
	if inj := net.Manager().Inj; inj != nil && len(inj.Errors) > 0 {
		return replication{}, fmt.Errorf("seed %d: fault plan: %s", seed, strings.Join(inj.Errors, "; "))
	}
	rep := replication{net: net, trace: traceBuf.Bytes()}
	if o := net.Observer(); o != nil {
		o.Finish(sc.duration)
		if err := o.SpanErr(); err != nil {
			return replication{}, err
		}
		rep.snap = o.Snapshot()
		rep.spans = spanBuf.Bytes()
	}
	return rep, nil
}

// run executes the scenario (optionally replicated) and prints the report.
func run(sc scenario, seed int64, replications, parallel int, out, statsOut io.Writer) error {
	if err := sc.prepare(); err != nil {
		return err
	}
	if sc.arena {
		return runArena(sc, seed, parallel, out, statsOut)
	}
	if replications <= 0 {
		replications = 1
	}
	seeds := runner.Seeds(seed, replications)
	prog := runner.NewProgress(replications)
	ctx := runner.WithProgress(context.Background(), prog)
	var tel *armsimTelemetry
	if sc.telemetryAddr != "" {
		var err error
		tel, err = newTelemetry(sc.telemetryAddr, replications, prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(statsOut, "armsim: telemetry on http://%s\n", tel.srv.Addr())
		defer func() {
			if sc.telemetryLinger > 0 {
				fmt.Fprintf(statsOut, "armsim: telemetry lingering %.0fs\n", sc.telemetryLinger)
				time.Sleep(time.Duration(sc.telemetryLinger * float64(time.Second)))
			}
			tel.close()
		}()
	}
	reps, st, err := runner.Map(ctx, parallel, replications,
		func(_ context.Context, i int) (replication, error) {
			rep, err := sc.runOnce(seeds[i])
			if err == nil && tel != nil {
				tel.publish(i, rep.snap, rep.spans)
			}
			return rep, err
		})
	if err != nil {
		return err
	}
	if sc.tracePath != "" {
		trace := concat(reps, func(r replication) []byte { return r.trace })
		if err := writeFileOrStdout(sc.tracePath, trace, out); err != nil {
			return err
		}
	}
	if sc.obs {
		if err := writeObs(sc, reps, out); err != nil {
			return err
		}
	}
	if replications == 1 {
		printDetailed(out, sc, seeds[0], reps[0].net)
		return nil
	}
	fmt.Fprintf(out, "topology=%s portables=%d duration=%.0fs mode=%s seed=%d replications=%d\n",
		sc.topo, sc.portables, sc.duration, sc.mode, seed, replications)
	tb := stats.Table{Header: []string{"seed", "handoffs", "drop-rate", "block-rate", "reservations", "pool-claims"}}
	var dropSum, blockSum float64
	for i, rep := range reps {
		c := rep.net.Metrics().Counter
		drop := c.Ratio(armnet.CtrHandoffDropped, armnet.CtrHandoffTried)
		block := c.Ratio(armnet.CtrNewBlocked, armnet.CtrNewRequested)
		dropSum += drop
		blockSum += block
		tb.AddRow(seeds[i], c.Get(armnet.CtrHandoffTried), drop, block,
			c.Get(armnet.CtrAdvanceResv), c.Get(armnet.CtrPoolClaims))
	}
	fmt.Fprint(out, tb.String())
	n := float64(replications)
	fmt.Fprintf(out, "mean drop rate: %.4f  mean block rate: %.4f\n", dropSum/n, blockSum/n)
	fmt.Fprintf(statsOut, "armsim: %s\n", st)
	return nil
}

// runArena runs the head-to-head strategy roster over the identical
// campus workload and prints the comparative snapshot. Only the campus
// workload is supported: the arena's claim is "same workload, different
// strategies", and the campus scenario is the calibrated one.
func runArena(sc scenario, seed int64, parallel int, out, statsOut io.Writer) error {
	if sc.topo != "campus" || sc.topoJSON != nil {
		return fmt.Errorf("-arena runs the campus workload; drop -topology/-topology-file")
	}
	roster := armnet.Scenario{
		Seed: seed, Portables: sc.portables, Duration: sc.duration,
		Dwell: sc.dwell, Mode: sc.mode, BMin: sc.bmin, BMax: sc.bmax,
	}.Roster(nil)
	entries, st, err := armnet.RunScenarios(context.Background(), roster, parallel)
	if err != nil {
		return err
	}
	if _, err := out.Write(armnet.RenderArena(roster, entries)); err != nil {
		return err
	}
	fmt.Fprintf(statsOut, "armsim: %s\n", st)
	return nil
}

// writeObs merges the per-replication snapshots in replication order —
// deterministic regardless of -parallel — and writes the requested
// exports.
func writeObs(sc scenario, reps []replication, stdout io.Writer) error {
	snaps := make([]*armnet.ObsSnapshot, len(reps))
	for i, rep := range reps {
		snaps[i] = rep.snap
	}
	merged, err := armnet.MergeObsSnapshots(snaps)
	if err != nil {
		return err
	}
	if merged == nil {
		return fmt.Errorf("observability armed but no snapshot was produced")
	}
	if sc.obsSnapshotPath != "" {
		if err := writeFileOrStdout(sc.obsSnapshotPath, merged.Prometheus(), stdout); err != nil {
			return err
		}
	}
	if sc.obsJSONPath != "" {
		if err := writeFileOrStdout(sc.obsJSONPath, merged.JSON(), stdout); err != nil {
			return err
		}
	}
	if sc.spansPath != "" {
		spans := concat(reps, func(r replication) []byte { return r.spans })
		if err := writeFileOrStdout(sc.spansPath, spans, stdout); err != nil {
			return err
		}
	}
	if sc.summary {
		printSummary(stdout, merged)
	}
	return nil
}

// concat joins one per-replication export in replication order, so the
// bytes are identical at any -parallel value.
func concat(reps []replication, part func(replication) []byte) []byte {
	var b bytes.Buffer
	for _, rep := range reps {
		b.Write(part(rep))
	}
	return b.Bytes()
}

func writeFileOrStdout(path string, data []byte, stdout io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSummary renders the paper-§7-style digest of the merged snapshot.
func printSummary(out io.Writer, snap *armnet.ObsSnapshot) {
	s := snap.Summary()
	fmt.Fprintf(out, "summary (over %d run(s)):\n", snap.Runs)
	tb := stats.Table{Header: []string{"result", "value"}}
	tb.AddRow("connection requests", fmt.Sprintf("%.0f", s.Requests))
	tb.AddRow("admitted", fmt.Sprintf("%.0f", s.Admitted))
	tb.AddRow("blocked", fmt.Sprintf("%.0f", s.Blocked))
	tb.AddRow("block rate", fmt.Sprintf("%.4f", s.BlockRate))
	tb.AddRow("handoffs attempted", fmt.Sprintf("%.0f", s.Handoffs))
	tb.AddRow("handoffs dropped", fmt.Sprintf("%.0f", s.Dropped))
	tb.AddRow("drop rate", fmt.Sprintf("%.4f", s.DropRate))
	tb.AddRow("bandwidth availability", fmt.Sprintf("%.4f", s.Availability))
	tb.AddRow("adaptations per conn", fmt.Sprintf("%.2f", s.MeanAdaptation))
	if s.SetupP50 > 0 || s.SetupP99 > 0 {
		tb.AddRow("setup latency p50/p99", fmt.Sprintf("%.1fms / %.1fms", s.SetupP50*1e3, s.SetupP99*1e3))
	}
	if s.InterruptP50 > 0 || s.InterruptP99 > 0 {
		tb.AddRow("handoff interruption p50/p99", fmt.Sprintf("%.1fms / %.1fms", s.InterruptP50*1e3, s.InterruptP99*1e3))
	}
	fmt.Fprint(out, tb.String())
}

// printDetailed reports a single replication in full.
func printDetailed(out io.Writer, sc scenario, seed int64, net *armnet.Network) {
	m := net.Metrics()
	fmt.Fprintf(out, "topology=%s portables=%d duration=%.0fs mode=%s seed=%d\n",
		sc.topo, sc.portables, sc.duration, sc.mode, seed)
	tb := stats.Table{Header: []string{"metric", "value"}}
	for _, name := range m.Counter.Names() {
		tb.AddRow(name, m.Counter.Get(name))
	}
	fmt.Fprint(out, tb.String())
	if tried := m.Counter.Get(armnet.CtrHandoffTried); tried > 0 {
		fmt.Fprintf(out, "handoff drop rate: %.4f\n", m.Counter.Ratio(armnet.CtrHandoffDropped, armnet.CtrHandoffTried))
	}
	mgr := net.Manager()
	if mgr.Latency.Predicted.N()+mgr.Latency.Unpredicted.N() > 0 {
		fmt.Fprintf(out, "handoff latency: predicted %.1fms (n=%d), unpredicted %.1fms (n=%d)\n",
			mgr.Latency.Predicted.Mean()*1e3, mgr.Latency.Predicted.N(),
			mgr.Latency.Unpredicted.Mean()*1e3, mgr.Latency.Unpredicted.N())
	}
	if req := m.Counter.Get(armnet.CtrNewRequested); req > 0 {
		fmt.Fprintf(out, "new-connection block rate: %.4f\n", m.Counter.Ratio(armnet.CtrNewBlocked, armnet.CtrNewRequested))
	}
}
