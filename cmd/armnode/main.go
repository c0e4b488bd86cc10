// Command armnode runs the live-mode testnet: the signal and maxmin
// control protocols over real UDP between processes, checked against the
// deterministic simulation.
//
// Modes:
//
//	armnode -mode loopback
//	    Run the scripted scenario twice in-process — pure simulation and
//	    loopback wire fabric — and diff the controller traces. The
//	    single-binary correctness check (no sockets).
//
//	armnode -mode node -name west [-listen 127.0.0.1:0] [-trace west.jsonl]
//	    Serve one node agent over UDP until a shutdown frame arrives,
//	    then write its JSONL trace. Prints "LISTEN <addr>" once bound.
//
//	armnode -mode controller -peers core=ADDR,east=ADDR,west=ADDR
//	    Drive the scripted scenario over UDP against running node
//	    agents.
//
//	armnode -mode orchestrate [-dir DIR]
//	    The full 3-process cluster: spawn one armnode per agent, run the
//	    controller against them, collect their traces, and diff the live
//	    run against the loopback reference. Any agent dying early reaps
//	    the whole cluster and fails the run.
//
//	armnode -mode soak [-soak-epochs N] [-seed S] [-plan FILE] [-out FILE]
//	    Run the deterministic chaos soak: a generated workload on the
//	    loopback fabric under a rotating fault plan, each epoch
//	    audited for leaked holds, ledger conservation, and rate
//	    convergence. Exits non-zero on any violation.
//
// Every mode except loopback accepts -telemetry-addr, which serves the
// shared diagnostics endpoint (/metrics, /healthz, /spans,
// /debug/pprof) backed by the mode's live wire recorders for the
// duration of the run.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"armnet/internal/clock"
	"armnet/internal/faults"
	"armnet/internal/obs/live"
	"armnet/internal/testnet"
)

func main() {
	var (
		mode    = flag.String("mode", "loopback", "loopback | node | controller | orchestrate | soak")
		name    = flag.String("name", "", "agent name (node mode)")
		listen  = flag.String("listen", "127.0.0.1:0", "UDP listen address (node mode)")
		trace   = flag.String("trace", "", "trace output file (node mode; empty = stdout)")
		peers   = flag.String("peers", "", "comma-separated name=addr list (controller mode)")
		dir     = flag.String("dir", "", "working directory for traces (orchestrate mode; empty = temp)")
		horizon = flag.Float64("horizon", 2.5, "wall-clock settle horizon in seconds (controller/orchestrate)")
		epochs  = flag.Int("soak-epochs", 0, "soak epoch count (soak mode; 0 = default)")
		seed    = flag.Int64("seed", 42, "workload and fault seed (soak mode)")
		plan    = flag.String("plan", "", "fault plan file (soak mode; empty = default rotation)")
		out     = flag.String("out", "", "soak report JSONL file (soak mode; empty = stdout)")
		telAddr = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /spans, /debug/pprof on this address (empty = off)")
	)
	flag.Parse()

	var err error
	switch *mode {
	case "loopback":
		err = runLoopback()
	case "node":
		err = runNode(*name, *listen, *trace, *telAddr)
	case "controller":
		_, err = runController(*peers, *horizon, *telAddr)
	case "orchestrate":
		err = runOrchestrate(*dir, *horizon, *telAddr)
	case "soak":
		err = runSoak(*epochs, *seed, *plan, *out, *telAddr)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "armnode:", err)
		os.Exit(1)
	}
}

// runLoopback is the in-process oracle: sim vs loopback controller
// traces must be byte-identical and both audits clean.
func runLoopback() error {
	sim, err := testnet.Run(testnet.Config{Mode: testnet.ModeSim})
	if err != nil {
		return err
	}
	loop, err := testnet.Run(testnet.Config{Mode: testnet.ModeLoopback})
	if err != nil {
		return err
	}
	if d := testnet.DiffTraces(sim.ControllerTrace, loop.ControllerTrace); d != "" {
		return fmt.Errorf("controller trace diverged from sim reference:\n%s", d)
	}
	if err := clean(sim); err != nil {
		return err
	}
	if err := clean(loop); err != nil {
		return err
	}
	report("loopback", loop)
	fmt.Printf("trace: %d controller events identical to sim reference\n",
		testnet.TraceEvents(loop.ControllerTrace))
	return nil
}

// runNode serves one agent until shutdown, then writes its trace.
func runNode(name, listen, traceFile, telAddr string) error {
	if name == "" {
		return fmt.Errorf("node mode needs -name")
	}
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return err
	}
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return err
	}
	defer pc.Close()
	var rec *live.NodeRecorder
	if telAddr != "" {
		rec = live.NewNodeRecorder(name)
		tel, err := newNodeTelemetry(telAddr, "node", 1, nil, rec)
		if err != nil {
			return err
		}
		fmt.Printf("armnode: telemetry on http://%s\n", tel.srv.Addr())
		defer tel.close()
		defer tel.finish()
	}
	fmt.Printf("LISTEN %s\n", pc.LocalAddr())
	node := testnet.NewNode(name, clock.NewWall())
	node.SetObs(rec)
	if err := node.ServeUDP(pc); err != nil {
		return err
	}
	tr, err := node.Trace()
	if err != nil {
		return err
	}
	if traceFile == "" {
		_, err = os.Stdout.Write(tr)
		return err
	}
	return os.WriteFile(traceFile, tr, 0o644)
}

// runController drives the scenario over UDP against running agents.
func runController(peerList string, horizon float64, telAddr string) (*testnet.Result, error) {
	peers := map[string]string{}
	for _, kv := range strings.Split(peerList, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want name=addr)", kv)
		}
		peers[k] = v
	}
	cfg := testnet.Config{Mode: testnet.ModeUDP, Peers: peers, Horizon: horizon}
	var tel *nodeTelemetry
	if telAddr != "" {
		ctl := live.NewController(nil)
		cfg.Obs = ctl
		var err error
		if tel, err = newNodeTelemetry(telAddr, "controller", 1, ctl); err != nil {
			return nil, err
		}
		fmt.Printf("armnode: telemetry on http://%s\n", tel.srv.Addr())
		defer tel.close()
	}
	res, err := testnet.Run(cfg)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		tel.finish()
	}
	if err := clean(res); err != nil {
		return res, err
	}
	report("udp", res)
	return res, nil
}

// runOrchestrate spawns one armnode process per agent, runs the
// controller, and diffs the cluster's traces against the loopback
// reference.
func runOrchestrate(dir string, horizon float64, telAddr string) error {
	ref, err := testnet.Run(testnet.Config{Mode: testnet.ModeLoopback})
	if err != nil {
		return err
	}
	ctrlCfg := testnet.Config{Mode: testnet.ModeUDP, Horizon: horizon}
	var tel *nodeTelemetry
	if telAddr != "" {
		ctl := live.NewController(nil)
		ctrlCfg.Obs = ctl
		if tel, err = newNodeTelemetry(telAddr, "orchestrate", 1, ctl); err != nil {
			return err
		}
		fmt.Printf("armnode: telemetry on http://%s\n", tel.srv.Addr())
		defer tel.close()
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if dir == "" {
		dir, err = os.MkdirTemp("", "armnode")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	agents := []string{"core", "east", "west"}
	peers := map[string]string{}
	procs := map[string]*exec.Cmd{}
	killAll := func() {
		for _, cmd := range procs {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
	}
	defer killAll()

	// Every child gets a reaper goroutine feeding one exit channel, so a
	// node dying at any point — before, during, or after the controller
	// run — is observed instead of leaving zombies behind.
	type exit struct {
		agent string
		err   error
	}
	exits := make(chan exit, len(agents))
	for _, a := range agents {
		cmd := exec.Command(self, "-mode", "node", "-name", a,
			"-trace", filepath.Join(dir, a+".jsonl"))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn %s: %w", a, err)
		}
		procs[a] = cmd
		go func(a string, cmd *exec.Cmd) { exits <- exit{a, cmd.Wait()} }(a, cmd)
		addr, err := awaitListen(stdout)
		if err != nil {
			killAll()
			return fmt.Errorf("%s never bound: %w", a, err)
		}
		peers[a] = addr
		fmt.Printf("spawned %s (pid %d) on %s\n", a, cmd.Process.Pid, addr)
	}

	// Run the controller concurrently with the exit watch: a node that
	// exits before shutdown — cleanly or not — reaps the whole cluster
	// and fails the run.
	type ctrl struct {
		res *testnet.Result
		err error
	}
	ctrlDone := make(chan ctrl, 1)
	ctrlCfg.Peers = peers
	go func() {
		res, err := testnet.Run(ctrlCfg)
		ctrlDone <- ctrl{res, err}
	}()
	// A clean node exit only ever follows the controller's shutdown frame,
	// so it races harmlessly with Run returning; an error exit at any
	// point reaps the cluster and fails the orchestration.
	var res *testnet.Result
	reaped := 0
	for res == nil {
		select {
		case ev := <-exits:
			if ev.err != nil {
				killAll()
				return fmt.Errorf("node %s died mid-run: %v", ev.agent, ev.err)
			}
			reaped++
		case c := <-ctrlDone:
			if c.err != nil {
				killAll()
				return c.err
			}
			res = c.res
		}
	}
	for reaped < len(agents) {
		select {
		case ev := <-exits:
			reaped++
			if ev.err != nil {
				killAll()
				return fmt.Errorf("node %s exited: %v", ev.agent, ev.err)
			}
		case <-time.After(10 * time.Second):
			killAll()
			return fmt.Errorf("%d node(s) never exited after shutdown", len(agents)-reaped)
		}
	}
	if tel != nil {
		tel.finish()
	}
	if err := clean(res); err != nil {
		return err
	}
	report("cluster", res)

	traces := map[string][]byte{}
	for _, a := range agents {
		tr, err := os.ReadFile(filepath.Join(dir, a+".jsonl"))
		if err != nil {
			return err
		}
		traces[a] = tr
	}
	if res.FrameDrops > 0 {
		fmt.Printf("skipping frame diff: %d drops triggered retransmission\n", res.FrameDrops)
		return nil
	}
	if diffs := testnet.DiffNodeFrames(traces, ref.NodeTraces); len(diffs) > 0 {
		return fmt.Errorf("live frame multisets diverge from loopback reference: %v", diffs)
	}
	fmt.Printf("trace: per-node frame multisets identical to loopback reference\n")
	return nil
}

// runSoak drives the chaos soak and writes the epoch report JSONL.
func runSoak(epochs int, seed int64, planFile, outFile, telAddr string) error {
	cfg := testnet.SoakConfig{Epochs: epochs, Seed: seed}
	if planFile != "" {
		data, err := os.ReadFile(planFile)
		if err != nil {
			return err
		}
		plan, err := faults.ParsePlan(strings.NewReader(string(data)))
		if err != nil {
			return fmt.Errorf("%s: %w", planFile, err)
		}
		cfg.Plans = []*faults.Plan{plan}
	}
	if telAddr != "" {
		total := epochs
		if total <= 0 {
			total = testnet.DefaultSoakEpochs
		}
		ctl := live.NewController(nil)
		cfg.Obs = ctl
		tel, err := newNodeTelemetry(telAddr, "soak", total, ctl)
		if err != nil {
			return err
		}
		fmt.Printf("armnode: telemetry on http://%s\n", tel.srv.Addr())
		defer tel.close()
		// Every epoch report lands on cfg.Out as it is produced, driving
		// the /healthz progress counter mid-soak.
		cfg.Out = epochCounter{tel}
	}
	res, err := testnet.RunSoak(cfg)
	if err != nil {
		return err
	}
	if outFile == "" {
		if _, err := os.Stdout.Write(res.ReportJSONL); err != nil {
			return err
		}
	} else if err := os.WriteFile(outFile, res.ReportJSONL, 0o644); err != nil {
		return err
	}
	fs := res.Run.Faults
	fmt.Printf("soak: %d epochs, %d commits, %d aborts, faults drop=%d dup=%d delay=%d reorder=%d partition=%d crash=%d reclaim=%d\n",
		len(res.Reports), res.Run.Commits, res.Run.Aborted,
		fs.Drops, fs.Dups, fs.Delays, fs.Reorders, fs.PartitionDrops, fs.Crashes, fs.LeaseReclaims)
	if len(res.Violations) > 0 {
		return fmt.Errorf("soak failed audit: %s", strings.Join(res.Violations, "; "))
	}
	fmt.Println("soak: every epoch audit clean")
	return nil
}

// awaitListen reads the child's LISTEN line (with a deadline).
func awaitListen(r interface{ Read([]byte) (int, error) }) (string, error) {
	type lineErr struct {
		line string
		err  error
	}
	ch := make(chan lineErr, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
				ch <- lineErr{line: addr}
				return
			}
		}
		ch <- lineErr{err: fmt.Errorf("stdout closed: %v", sc.Err())}
	}()
	select {
	case le := <-ch:
		return le.line, le.err
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("timeout")
	}
}

func clean(res *testnet.Result) error {
	if len(res.Violations) > 0 {
		return fmt.Errorf("%v run failed audit: %s", res.Mode, strings.Join(res.Violations, "; "))
	}
	return nil
}

func report(label string, res *testnet.Result) {
	fmt.Printf("%s: %d commits, %d aborts, %d frames (%d dropped), live=%v, audit clean\n",
		label, res.Commits, res.Aborted, res.FramesSent, res.FrameDrops, res.Live)
}
