// Command perfbench is armnet's benchmark. It replays a seeded,
// generated input on the simulator clock and reports host-time figures:
// end-to-end metrics from an untraced run (-trace 0) and per-layer
// metrics from a traced run (-trace 1). Every run also checks that the
// simulated outcomes are correct. README.md gives the workloads, their
// reasons, and which layer metric should move which end-to-end metric.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload campus-dense --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a readable table and any
// failed check go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"armnet/internal/runner"
)

func main() {
	// One P: the collector's work lands in the measured goroutine's time
	// instead of racing for the second vCPU, which other tenants share.
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "campus-dense, grid-sparse or live-loopback")
	seed := fs.Int64("seed", 1, "workload seed; the replication seeds derive from it")
	seconds := fs.Float64("seconds", 25, "host seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	workdir := fs.String("workdir", ".bench_build", "directory for the traced run's CPU profile")
	printPins := fs.Int("print-digests", 0, "print the pinned digests of workload seeds 0..n-1 and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	if *printPins > 0 {
		p, err := printDigests(w, *printPins)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(p)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	pin, err := loadPins(w.name)
	if err != nil {
		return err
	}
	seeds := runner.Seeds(*seed, w.reps)
	budget := time.Duration(*seconds * float64(time.Second))

	// The repository's own harness runs every replication first: it is
	// the oracle the benchmark's own wiring must agree with, and it warms
	// caches and the heap before anything is timed.
	views := make([]harnessView, len(seeds))
	for i, s := range seeds {
		if views[i], err = w.harness(s); err != nil {
			return fmt.Errorf("%s harness, replication %d: %w", w.name, i, err)
		}
	}
	var canary *repResult
	if _, ok := pin.Sets[strconv.FormatInt(*seed, 10)]; !ok {
		r, err := w.exec(0, nil)
		if err != nil {
			return fmt.Errorf("%s canary: %w", w.name, err)
		}
		canary = &r
	}

	calKernel() // fills encoding/json's type caches before calibrating

	var phases []*phase
	var values map[string]float64
	var specs []metricSpec
	if *trace == 0 {
		p, err := measure(w, seeds, budget, false, views)
		if err != nil {
			return err
		}
		phases, specs, values = []*phase{p}, endToEnd, endToEndValues(p)
	} else {
		// The untraced third gives the throughput the traced run is
		// compared with, and the allocation counts; the traced rest
		// gives the layer readings and the CPU profile.
		pa, err := measure(w, seeds, budget/3, false, views)
		if err != nil {
			return err
		}
		pb, shares, err := tracedPhase(w, seeds, budget-budget/3, *workdir)
		if err != nil {
			return err
		}
		phases, specs, values = []*phase{pa, pb}, perLayer, perLayerValues(pa, pb, shares)
	}

	fails := verify(*seed, phases, pin, canary)
	rep := report{Failed: int64(len(fails)), Correct: len(fails) == 0}
	for _, p := range phases {
		rep.Attempted += p.ops()
	}
	if *trace == 1 {
		values["error_rate"] = ratio(rep.Failed, rep.Attempted)
	}
	rep.Metrics = make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		rep.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	for _, f := range fails {
		fmt.Fprintln(stderr, "FAIL:", f)
	}
	fmt.Fprintf(stderr, "%s seed=%d trace=%d passes=%v attempted=%d failed=%d\n",
		w.name, *seed, *trace, passes(phases), rep.Attempted, rep.Failed)
	for _, s := range specs {
		fmt.Fprintf(stderr, "  %-28s %16.6g %s\n", s.name, rep.Metrics[s.name].Value, s.unit)
	}
	if *trace == 0 {
		lat := phases[0].samples(func(r repResult) []float64 { return r.opUS })
		fmt.Fprintf(stderr, "  op_latency_us samples: %d\n", len(lat))
	}
	var cal []float64
	for _, p := range phases {
		cal = append(cal, p.samples(func(r repResult) []float64 { return []float64{r.cal} })...)
	}
	fmt.Fprintf(stderr, "  calibration factor: median %.4f, range %.4f-%.4f over %d executions\n",
		quantile(cal, 0.5), quantile(cal, 0), quantile(cal, 1), len(cal))
	return json.NewEncoder(stdout).Encode(rep)
}

func passes(phases []*phase) []int {
	out := make([]int, len(phases))
	for i, p := range phases {
		out[i] = p.passes
	}
	return out
}

// tracedPhase measures with the layer wrappers armed and the CPU
// profiler on, then folds the profile by layer.
func tracedPhase(w *workload, seeds []int64, budget time.Duration, workdir string) (*phase, map[string]float64, error) {
	path := filepath.Join(workdir, "perfbench-"+w.name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	p, err := measure(w, seeds, budget, true, nil)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	bin, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	text, err := profileTraces(bin, path)
	if err != nil {
		return nil, nil, err
	}
	shares, err := foldTraces(text)
	if err != nil {
		return nil, nil, err
	}
	return p, shares, nil
}

func endToEndValues(p *phase) map[string]float64 {
	lat := p.samples(func(r repResult) []float64 { return r.opUS })
	return map[string]float64{
		"setup_s":             p.median(func(r repResult) float64 { return r.setup.Seconds() }),
		"portable_secs_per_s": p.portableSecsPerS(),
		"setups_per_s":        p.once(func(r repResult) float64 { return float64(r.setups) }) / p.runSeconds(),
		"op_latency_us.p50":   quantile(lat, 0.5),
		"op_latency_us.p90":   quantile(lat, 0.9),
		"peak_rss_mb":         peakRSSMB(),
	}
}

func perLayerValues(pa, pb *phase, shares map[string]float64) map[string]float64 {
	count := func(f func(*layerSample) int64) float64 {
		return pb.once(func(r repResult) float64 { return float64(f(r.ls)) })
	}
	busy := func(f func(*layerSample) time.Duration) float64 {
		return pb.median(func(r repResult) float64 { return f(r.ls).Seconds() })
	}
	div := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	coreOps := count(func(l *layerSample) int64 { return l.coreOps })
	admCalls := count(func(l *layerSample) int64 { return l.admCalls })
	events := count(func(l *layerSample) int64 { return int64(l.events) })
	frames := count(func(l *layerSample) int64 { return l.frames })
	simRun := busy(func(l *layerSample) time.Duration { return l.simRun })
	opsA := float64(pa.ops())
	v := map[string]float64{
		"core.ops":                   coreOps,
		"core.busy_s":                busy(func(l *layerSample) time.Duration { return l.coreBusy }),
		"core.op_us.p99":             quantile(pb.samples(func(r repResult) []float64 { return r.ls.coreOpUS }), 0.99),
		"core.setups":                count(func(l *layerSample) int64 { return l.coreSetups }),
		"core.setup_blocks":          count(func(l *layerSample) int64 { return l.coreBlocks }),
		"core.handoffs":              count(func(l *layerSample) int64 { return l.coreHandoffs }),
		"core.handoff_drops":         count(func(l *layerSample) int64 { return l.coreDrops }),
		"admission.calls":            admCalls,
		"admission.busy_s":           busy(func(l *layerSample) time.Duration { return l.admBusy }),
		"admission.call_us.p50":      quantile(pb.samples(func(r repResult) []float64 { return r.ls.admCallUS }), 0.5),
		"admission.calls_per_op":     div(admCalls, coreOps),
		"admission.admit_ratio":      div(count(func(l *layerSample) int64 { return l.admAdmitted }), admCalls),
		"maxmin.calls":               count(func(l *layerSample) int64 { return l.mmCalls }),
		"maxmin.busy_s":              busy(func(l *layerSample) time.Duration { return l.mmBusy }),
		"maxmin.messages":            count(func(l *layerSample) int64 { return l.mmMessages }),
		"maxmin.sessions":            count(func(l *layerSample) int64 { return l.mmSessions }),
		"maxmin.retransmits":         count(func(l *layerSample) int64 { return l.mmRetransmits }),
		"des.events":                 events,
		"des.events_per_op":          div(events, coreOps),
		"des.dispatch_s":             busy(func(l *layerSample) time.Duration { return l.dispatch }),
		"eventbus.records":           count(func(l *layerSample) int64 { return l.records }),
		"eventbus.trace_bytes":       count(func(l *layerSample) int64 { return l.traceBytes }),
		"topology.build_s":           busy(func(l *layerSample) time.Duration { return l.topoBuild }),
		"mobility.moves":             count(func(l *layerSample) int64 { return l.moves }),
		"mobility.gen_s":             busy(func(l *layerSample) time.Duration { return l.mobGen }),
		"wire.frames":                frames,
		"wire.frames_per_s":          pa.once(func(r repResult) float64 { return float64(r.out.Frames) }) / pa.runSeconds(),
		"wire.frame_drops":           count(func(l *layerSample) int64 { return l.frameDrops }),
		"wire.overhead_us_per_frame": div((pb.runSeconds()-simRun)*1e6, frames),
		"testnet.commits":            count(func(l *layerSample) int64 { return l.commits }),
		"testnet.aborts":             count(func(l *layerSample) int64 { return l.aborts }),
		"testnet.violations":         count(func(l *layerSample) int64 { return l.violations }),
		"runtime.mallocs_per_op":     div(float64(pa.mallocs), opsA),
		"runtime.alloc_bytes_per_op": div(float64(pa.allocBytes), opsA),
		"runtime.gc_cycles":          div(float64(pa.gcs), float64(pa.passes)),
		// Host time, not calibrated: the profiler slows the calibration
		// kernel as well, so calibration would hide part of its cost.
		"bench.trace_overhead": div(pb.hostRunSeconds(), pa.hostRunSeconds()),
		"handoff_drop_rate": div(pa.once(func(r repResult) float64 { return float64(r.drops) }),
			pa.once(func(r repResult) float64 { return float64(r.handoffs) })),
		"setup_block_rate": div(pa.once(func(r repResult) float64 { return float64(r.blocks) }),
			pa.once(func(r repResult) float64 { return float64(r.requests) })),
	}
	for l, s := range shares {
		v["cpu_share."+l] = s
	}
	return v
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
