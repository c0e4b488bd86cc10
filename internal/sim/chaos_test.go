package sim

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateChaos = flag.Bool("update-chaos", false, "rewrite the chaos trace golden from current output")

// chaosGoldenCfg is the pinned seed-1 chaos scenario: 10% control-message
// loss, a cell outage mid-run, and a signaling-plane crash.
var chaosGoldenCfg = Scenario{
	Seed: 1, Portables: 8, Duration: 120, Settle: 30,
	Chaos: &Chaos{LossRate: 0.1, Plan: "at 30 cell-out off-2 for 30\nat 80 crash-signaling"},
}

// runOne runs a single scenario with its trace captured.
func runOne(t *testing.T, s Scenario) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	s.Trace = &buf
	rs, _, err := Run(context.Background(), []Scenario{s}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0], buf.Bytes()
}

// TestChaosAuditorCleanUnderLoss is the headline recovery claim: at 10%
// control-message loss with component crashes, retransmission, leases,
// and re-ADVERTISE bring the system back to a state where every recovery
// invariant holds — no leaked holds, ledger conservation, no orphaned
// allocations, and maxmin re-convergence to the water-filling oracle.
func TestChaosAuditorCleanUnderLoss(t *testing.T) {
	plan := "at 120 cell-out off-2 for 60\nat 300 crash-zone west\nat 450 crash-signaling"
	for _, seed := range []int64{1, 2, 3} {
		res, _ := runOne(t, Scenario{Seed: seed, Chaos: &Chaos{LossRate: 0.1, Plan: plan}})
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: recovery invariants violated:\n%s", seed, strings.Join(res.Violations, "\n"))
		}
		if res.FaultsInjected == 0 {
			t.Fatalf("seed %d: the fault plan never fired", seed)
		}
		if res.Handoffs == 0 {
			t.Fatalf("seed %d: workload produced no handoffs", seed)
		}
	}
}

// TestChaosRetransmissionRecovers checks the lossy-control-plane path end
// to end: drops must be observed, retransmitted, and still leave the run
// audit-clean.
func TestChaosRetransmissionRecovers(t *testing.T) {
	res, _ := runOne(t, Scenario{Seed: 1, Duration: 300, Chaos: &Chaos{LossRate: 0.2}})
	if res.Retransmits == 0 {
		t.Fatal("20% loss produced no retransmissions")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// chaosTraceHead returns the first n lines of the pinned scenario's trace.
func chaosTraceHead(t *testing.T, n int) []byte {
	t.Helper()
	res, trace := runOne(t, chaosGoldenCfg)
	if len(res.Violations) != 0 {
		t.Fatalf("pinned scenario no longer audit-clean: %v", res.Violations)
	}
	if !bytes.Contains(trace, []byte(`"type":"fault-`)) {
		t.Fatal("trace records no fault events")
	}
	lines := bytes.SplitAfter(trace, []byte("\n"))
	if len(lines) < n {
		t.Fatalf("trace has only %d lines, want at least %d", len(lines), n)
	}
	return bytes.Join(lines[:n], nil)
}

// TestChaosTraceGolden pins the head of the seed-1 chaos event stream.
// Any byte of drift means fault injection, retransmission scheduling, or
// event publication changed order — regenerate deliberately with
// `go test ./internal/sim -run TestChaosTraceGolden -update-chaos`.
func TestChaosTraceGolden(t *testing.T) {
	got := chaosTraceHead(t, 60)
	golden := filepath.Join("testdata", "faulttrace.golden")
	if *updateChaos {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos trace drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
