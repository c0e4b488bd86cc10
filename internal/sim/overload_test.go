package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateOverload = flag.Bool("update-overload", false, "rewrite the overload trace golden from current output")

// overloadGoldenCfg is the pinned seed-1 load ramp under the reference
// policy: 40 portables arriving over 240 s, two signaled connections
// each, sized so the campus capacity region is exceeded mid-ramp.
var overloadGoldenCfg = Scenario{Seed: 1, Overload: &Overload{Policy: "default"}}

// TestOverloadRampAudited is the headline robustness claim: under a
// load ramp that exceeds the capacity region, the staged response runs
// (degrade cascades fire, setups are shed) and the audited invariant
// holds — no handoff is dropped while a degradable connection still
// holds more than b_min on the contended link.
func TestOverloadRampAudited(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		res, _ := runOne(t, Scenario{Seed: seed, Overload: &Overload{Policy: "default"}})
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: invariant violations:\n%s", seed, strings.Join(res.Violations, "\n"))
		}
		if res.DegradeCascades == 0 {
			t.Fatalf("seed %d: no degrade cascades fired", seed)
		}
		if res.Sheds == 0 {
			t.Fatalf("seed %d: no setups were shed", seed)
		}
		if res.PeakStage == "normal" {
			t.Fatalf("seed %d: no cell ever left the normal stage", seed)
		}
		if res.Handoffs == 0 {
			t.Fatalf("seed %d: workload produced no handoffs", seed)
		}
	}
}

// TestOverloadBreakerLifecycle pins the circuit breaker's behavior at
// seed 1: it must trip on the setup-failure rate, half-open after the
// cooldown, and eventually close on a successful probe — and the whole
// transition path must be reproducible run to run.
func TestOverloadBreakerLifecycle(t *testing.T) {
	res, _ := runOne(t, overloadGoldenCfg)
	if res.BreakerTrips == 0 {
		t.Fatal("breaker never tripped")
	}
	if res.BreakerFastFails == 0 {
		t.Fatal("open breaker never fast-failed a setup")
	}
	path := strings.Join(res.BreakerPath, " ")
	for _, want := range []string{"closed>open", "open>half-open", "half-open>closed"} {
		if !strings.Contains(path, want) {
			t.Fatalf("breaker path missing %q: %s", want, path)
		}
	}
	again, _ := runOne(t, overloadGoldenCfg)
	if !reflect.DeepEqual(again.BreakerPath, res.BreakerPath) {
		t.Fatalf("breaker path not deterministic:\nfirst  %v\nsecond %v", res.BreakerPath, again.BreakerPath)
	}
}

// TestOverloadNilPolicyZeroCost: with no policy the subsystem must not
// exist — no overload events of any kind, zero overload counters, and a
// byte-identical trace run to run. (That the nil policy also leaves
// pre-existing scenarios untouched is pinned by the campus and chaos
// trace goldens, which run without one.)
func TestOverloadNilPolicyZeroCost(t *testing.T) {
	cfg := Scenario{Seed: 1, Overload: &Overload{}} // Policy empty: disabled
	res, trace := runOne(t, cfg)
	for _, kind := range []string{"overload-stage", "setup-shed", "degrade-cascade", "breaker-state"} {
		if bytes.Contains(trace, []byte(`"type":"`+kind+`"`)) {
			t.Fatalf("nil policy emitted %s events", kind)
		}
	}
	if res.Sheds != 0 || res.DegradeCascades != 0 || res.BreakerTrips != 0 || res.BreakerFastFails != 0 {
		t.Fatalf("nil policy moved overload counters: %+v", res)
	}
	if res.StageChanges != 0 || len(res.BreakerPath) != 0 {
		t.Fatalf("nil policy produced stage/breaker transitions: %+v", res)
	}
	_, trace2 := runOne(t, cfg)
	if !bytes.Equal(trace, trace2) {
		t.Fatal("nil-policy trace not byte-identical across runs")
	}
}

// TestOverloadComposesWithFaults runs chaos and overload together: a
// lossy control plane plus a mid-ramp cell outage, with both auditors
// armed. Both subsystems must fire and both invariant sets must hold.
func TestOverloadComposesWithFaults(t *testing.T) {
	res, _ := runOne(t, Scenario{
		Seed:     1,
		Overload: &Overload{Policy: "default"},
		Chaos:    &Chaos{LossRate: 0.1, Plan: "at 150 cell-out off-2 for 60"},
	})
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if res.FaultsInjected == 0 {
		t.Fatal("the fault plan never fired")
	}
	if res.Retransmits == 0 {
		t.Fatal("10% loss produced no retransmissions")
	}
	if res.BreakerTrips == 0 && res.Sheds == 0 && res.DegradeCascades == 0 {
		t.Fatal("overload control never acted")
	}
}

// overloadTraceHead returns the first n lines of the pinned scenario's
// trace, after re-checking that the scenario still exercises the whole
// subsystem.
func overloadTraceHead(t *testing.T, n int) []byte {
	t.Helper()
	res, trace := runOne(t, overloadGoldenCfg)
	if len(res.Violations) != 0 {
		t.Fatalf("pinned scenario no longer audit-clean: %v", res.Violations)
	}
	for _, kind := range []string{"overload-stage", "setup-shed", "degrade-cascade", "breaker-state"} {
		if !bytes.Contains(trace, []byte(`"type":"`+kind+`"`)) {
			t.Fatalf("trace records no %s events", kind)
		}
	}
	lines := bytes.SplitAfter(trace, []byte("\n"))
	if len(lines) < n {
		t.Fatalf("trace has only %d lines, want at least %d", len(lines), n)
	}
	return bytes.Join(lines[:n], nil)
}

// TestOverloadTraceGolden pins the head of the seed-1 overload event
// stream. Any byte of drift means detector sampling, stage transitions,
// shedding, or breaker scheduling changed. Refresh intentionally with
// `go test ./internal/sim -run TestOverloadTraceGolden -update-overload`.
func TestOverloadTraceGolden(t *testing.T) {
	got := overloadTraceHead(t, 80)
	golden := filepath.Join("testdata", "overloadtrace.golden")
	if *updateOverload {
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
		t.Fatalf("overload trace drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
