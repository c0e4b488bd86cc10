package faults

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/topology"
)

// samplePlan exercises every simulator action; liveSamplePlan every
// live-plane form. Both seed the fuzz corpus.
const samplePlan = `
# chaos: 10% control loss, slow maxmin, mid-run outages
drop signal 0.1
drop maxmin 0.1
delay maxmin 0.05 0.005
dup any 0.02
at 100 link-down bb:r1-r2 for 50
at 300 cell-out off-1
at 350 cell-restore off-1
at 400 crash-zone z1
at 500 blackout caf-1 for 30
at 600 crash-signaling
`

const liveSamplePlan = `
# soak epoch plan
drop any 0.2
dup signal 0.1
delay maxmin 0.3 0.002
reorder any 0.25 0.004
drop signal 0.5 on sw-east->air-off-2
at 1 partition east for 2
at 0.8 crash west for 2.2
at 3 crash core
`

func mustParse(t testing.TB, spec string) *Plan {
	t.Helper()
	p, err := ParsePlan(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	return p
}

func TestParsePlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec string
		want *Plan
	}{
		{"sim", samplePlan, &Plan{
			Messages: []MsgRule{
				{Proto: "signal", Action: "drop", Prob: 0.1},
				{Proto: "maxmin", Action: "drop", Prob: 0.1},
				{Proto: "maxmin", Action: "delay", Prob: 0.05, Delay: 0.005},
				{Proto: "any", Action: "dup", Prob: 0.02},
			},
			Timed: []TimedFault{
				{At: 100, Action: "link-down", Target: "bb:r1-r2", For: 50},
				{At: 300, Action: "cell-out", Target: "off-1"},
				{At: 350, Action: "cell-restore", Target: "off-1"},
				{At: 400, Action: "crash-zone", Target: "z1"},
				{At: 500, Action: "blackout", Target: "caf-1", For: 30},
				{At: 600, Action: "crash-signaling"},
			},
		}},
		{"live", liveSamplePlan, &Plan{
			Messages: []MsgRule{
				{Proto: "any", Action: "drop", Prob: 0.2},
				{Proto: "signal", Action: "dup", Prob: 0.1},
				{Proto: "maxmin", Action: "delay", Prob: 0.3, Delay: 0.002},
				{Proto: "any", Action: "reorder", Prob: 0.25, Delay: 0.004},
				{Proto: "signal", Action: "drop", Prob: 0.5, Link: "sw-east->air-off-2"},
			},
			Timed: []TimedFault{
				{At: 1, Action: "partition", Target: "east", For: 2},
				{At: 0.8, Action: "crash", Target: "west", For: 2.2},
				{At: 3, Action: "crash", Target: "core"},
			},
		}},
		{"comments-only", "# only comments\n\n", &Plan{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustParse(t, tc.spec)
			if !reflect.DeepEqual(p, tc.want) {
				t.Fatalf("parsed %+v, want %+v", p, tc.want)
			}
			if p.Empty() != tc.want.Empty() {
				t.Fatalf("Empty() = %v", p.Empty())
			}
		})
	}
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.String() != "" {
		t.Error("nil plan not empty")
	}
}

// TestParsePlanRoundTrip pins that String renders back into the grammar:
// the re-parsed plan has the same message rules, and String is a
// fixpoint (it sorts timed faults by time).
func TestParsePlanRoundTrip(t *testing.T) {
	for _, pl := range []Plane{Sim, Live} {
		spec := samplePlan
		if pl == Live {
			spec = liveSamplePlan
		}
		t.Run(pl.String(), func(t *testing.T) {
			p := mustParse(t, spec)
			again := mustParse(t, p.String())
			if !reflect.DeepEqual(again.Messages, p.Messages) {
				t.Errorf("rules drifted: %+v vs %+v", again.Messages, p.Messages)
			}
			if got, want := again.String(), p.String(); got != want {
				t.Errorf("round trip drifted:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestParsePlanErrors feeds the one parser each plane's malformed forms:
// the sim rows exercise the component actions, the live rows the
// partition/crash and link-filter forms.
func TestParsePlanErrors(t *testing.T) {
	for _, tc := range []struct {
		plane Plane
		bad   []string
	}{
		{Sim, []string{
			"drop signal 1.5",            // prob out of range
			"drop tcp 0.1",               // unknown proto
			"delay signal 0.1",           // missing delay value
			"at -5 crash-signaling",      // negative time
			"at 10 blackout caf-1",       // blackout without duration
			"at 10 link-down",            // missing target
			"at 10 explode everything",   // unknown action
			"frobnicate 1 2 3",           // unknown directive
			"drop signal NaN",            // non-finite
			"delay signal 0.5 1e400",     // non-finite
			"drop signal nope",           // bad float
			"at 10 link-up l for 5",      // `for` on a restore
			"at 1 crash-signaling for 5", // `for` on an untargeted action
		}},
		{Live, []string{
			"drop signal 1.5",            // prob out of range
			"drop tcp 0.5",               // unknown proto
			"wobble any 0.5",             // unknown directive
			"delay signal 0.5",           // missing seconds
			"reorder signal 0.5 -1",      // negative duration
			"at -1 partition east for 2", // negative time
			"at 1 partition east",        // partition without duration
			"at 1 explode east",          // unknown action
			"at 1 crash east for 0",      // non-positive duration
			"at 1 crash east maybe",      // trailing garbage
			"drop signal nope",           // bad float
			"delay signal 0.5 1e400",     // non-finite
			"drop signal 0.5 on",         // dangling filter keyword
		}},
	} {
		t.Run(tc.plane.String(), func(t *testing.T) {
			for _, in := range tc.bad {
				if _, err := ParsePlan(strings.NewReader(in)); err == nil {
					t.Errorf("ParsePlan(%q) accepted invalid input", in)
				}
			}
		})
	}
}

// TestEmptyPlanDrawsNothing pins the zero-cost contract on both planes:
// a nil or empty injector decides every message without consuming
// randomness, so interleaving it with an armed one cannot perturb the
// armed one's stream.
func TestEmptyPlanDrawsNothing(t *testing.T) {
	var nilInj *Injector
	if drop, _ := nilInj.DeliverSignal("c", 0); drop {
		t.Fatal("nil injector must deliver")
	}
	if v := nilInj.Frame("signal", "l"); v != (Verdict{}) {
		t.Fatal("nil injector acted")
	}
	p := mustParse(t, "drop any 0.5")
	for _, pl := range []Plane{Sim, Live} {
		t.Run(pl.String(), func(t *testing.T) {
			empty := NewInjector(&Plan{}, pl, 42, nil)
			ref := NewInjector(p, pl, 42, nil)
			mixed := NewInjector(p, pl, 42, nil)
			for i := 0; i < 100; i++ {
				if drop, delay := empty.DeliverMaxmin("c", i, false); drop || delay != 0 {
					t.Fatal("empty plan must not perturb delivery")
				}
				if v := empty.Frame("signal", "l"); v != (Verdict{}) {
					t.Fatal("empty plan must not perturb a frame")
				}
				if got, want := mixed.Frame("signal", "l"), ref.Frame("signal", "l"); got != want {
					t.Fatalf("frame %d: verdict %+v, want %+v", i, got, want)
				}
			}
			if empty.Drops+empty.Dups+empty.Delays+empty.Reorders != 0 {
				t.Fatal("empty plan counted firings")
			}
		})
	}
}

// TestInjectorDeterminism pins that identical (plan, plane, seed)
// triples produce identical verdict sequences through either plane's
// entry point, that different seeds decorrelate, and that every rule
// family fires.
func TestInjectorDeterminism(t *testing.T) {
	p := mustParse(t, "drop any 0.3\ndup any 0.2\ndelay any 0.4 0.01\nreorder any 0.25 0.02")
	for _, tc := range []struct {
		plane Plane
		next  func(in *Injector, i int) Verdict
	}{
		{Sim, func(in *Injector, i int) Verdict {
			drop, delay := in.DeliverMaxmin("c", i, i%5 == 0)
			return Verdict{Drop: drop, Delay: delay}
		}},
		{Live, func(in *Injector, i int) Verdict { return in.Frame("signal", "l1") }},
	} {
		t.Run(tc.plane.String(), func(t *testing.T) {
			run := func(seed int64) ([]Verdict, *Injector) {
				in := NewInjector(p, tc.plane, seed, nil)
				out := make([]Verdict, 200)
				for i := range out {
					out[i] = tc.next(in, i)
				}
				return out, in
			}
			a, in := run(7)
			b, _ := run(7)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed produced different verdicts")
			}
			if c, _ := run(8); reflect.DeepEqual(a, c) {
				t.Fatal("different seeds produced identical verdicts (suspicious)")
			}
			if in.Drops == 0 || in.Drops == len(a) || in.Dups == 0 || in.Delays == 0 || in.Reorders == 0 {
				t.Errorf("counters did not all move: %+v", in)
			}
		})
	}
}

// TestInjectorVerdicts pins the rule evaluator: protocol and link
// filters, composition in plan order, a drop winning outright, and one
// FaultMessage per firing, in firing order.
func TestInjectorVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name, spec  string
		proto, link string
		want        Verdict
		events      []string
	}{
		{"link-match", "drop signal 1 on l-target", "signal", "l-target", Verdict{Drop: true}, []string{"drop"}},
		{"link-other", "drop signal 1 on l-target", "signal", "l-other", Verdict{}, nil},
		{"proto-other", "drop signal 1 on l-target", "maxmin", "l-target", Verdict{}, nil},
		{"compose", "dup any 1\ndelay any 1 0.5\nreorder maxmin 1 0.25\ndelay maxmin 1 0.5", "maxmin", "",
			Verdict{Dup: true, Delay: 1, Reorder: 0.25}, []string{"dup", "delay", "reorder", "delay"}},
		{"drop-wins", "delay any 1 0.5\ndrop any 1\ndup any 1", "signal", "",
			Verdict{Drop: true, Delay: 0.5}, []string{"delay", "drop"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.New()
			bus := eventbus.New(sim)
			var events []string
			bus.Subscribe(func(r eventbus.Record) {
				events = append(events, r.Event.(eventbus.FaultMessage).Action)
			}, eventbus.KindFaultMessage)
			in := NewInjector(mustParse(t, tc.spec), Live, 1, bus)
			if got := in.decide(tc.proto, tc.link, "c", 0); got != tc.want {
				t.Fatalf("verdict %+v, want %+v", got, tc.want)
			}
			if !reflect.DeepEqual(events, tc.events) {
				t.Fatalf("events %v, want %v", events, tc.events)
			}
		})
	}
}

// recordingDriver logs component-fault calls in order.
type recordingDriver struct {
	calls []string
}

func (d *recordingDriver) FailLink(l string) error    { d.calls = append(d.calls, "fail-link "+l); return nil }
func (d *recordingDriver) RestoreLink(l string) error { d.calls = append(d.calls, "restore-link "+l); return nil }
func (d *recordingDriver) FailCell(c string) error    { d.calls = append(d.calls, "fail-cell "+c); return nil }
func (d *recordingDriver) RestoreCell(c string) error { d.calls = append(d.calls, "restore-cell "+c); return nil }
func (d *recordingDriver) CrashZone(z string) error   { d.calls = append(d.calls, "crash-zone "+z); return nil }
func (d *recordingDriver) Blackout(c string, dur float64) error {
	d.calls = append(d.calls, "blackout "+c)
	return nil
}
func (d *recordingDriver) CrashSignaling() error { d.calls = append(d.calls, "crash-signaling"); return nil }

func TestArmSchedulesTimedFaults(t *testing.T) {
	plan, err := ParsePlan(strings.NewReader(
		"at 10 link-down l1 for 5\nat 20 crash-zone z\nat 30 crash-signaling"))
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	bus := eventbus.New(sim)
	var events []string
	bus.Subscribe(func(r eventbus.Record) {
		ev := r.Event.(eventbus.FaultComponent)
		events = append(events, ev.Action)
	}, eventbus.KindFaultComponent)
	d := &recordingDriver{}
	in := NewInjector(plan, Sim, 1, bus)
	in.Arm(sim, d)
	if err := sim.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	want := []string{"fail-link l1", "restore-link l1", "crash-zone z", "crash-signaling"}
	if len(d.calls) != len(want) {
		t.Fatalf("driver calls %v, want %v", d.calls, want)
	}
	for i := range want {
		if d.calls[i] != want[i] {
			t.Fatalf("driver calls %v, want %v", d.calls, want)
		}
	}
	wantEv := []string{"link-down", "link-up", "crash-zone", "crash-signaling"}
	if len(events) != len(wantEv) {
		t.Fatalf("events %v, want %v", events, wantEv)
	}
	if in.Components != 4 {
		t.Fatalf("Components = %d, want 4", in.Components)
	}
}

func TestArmRecordsDriverErrors(t *testing.T) {
	plan, _ := ParsePlan(strings.NewReader("at 1 crash-zone nowhere"))
	sim := des.New()
	in := NewInjector(plan, Sim, 1, nil)
	in.Arm(sim, failingDriver{})
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(in.Errors) != 1 || !strings.Contains(in.Errors[0], "crash-zone nowhere") {
		t.Fatalf("Errors = %v, want one crash-zone failure", in.Errors)
	}
}

type failingDriver struct{}

func (failingDriver) FailLink(string) error          { return errBoom }
func (failingDriver) RestoreLink(string) error       { return errBoom }
func (failingDriver) FailCell(string) error          { return errBoom }
func (failingDriver) RestoreCell(string) error       { return errBoom }
func (failingDriver) CrashZone(string) error         { return errBoom }
func (failingDriver) Blackout(string, float64) error { return errBoom }
func (failingDriver) CrashSignaling() error          { return errBoom }

var errBoom = errors.New("boom")

func auditLedger(t *testing.T) *admission.Ledger {
	t.Helper()
	b := topology.NewBackbone()
	if _, err := b.AddNode(topology.Node{ID: "a", Kind: topology.KindSwitch}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNode(topology.Node{ID: "b", Kind: topology.KindSwitch}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddLink(topology.Link{From: "a", To: "b", Capacity: 1e6, PropDelay: 1e-3}); err != nil {
		t.Fatal(err)
	}
	return admission.NewLedger(b)
}

func TestAuditorCleanRun(t *testing.T) {
	lg := auditLedger(t)
	a := &Auditor{
		Ledger:         lg,
		PendingHolds:   func() float64 { return 0 },
		LiveConns:      func() []string { return nil },
		ConvergenceGap: func() float64 { return 0 },
	}
	if v := a.CheckFinal(); len(v) != 0 {
		t.Fatalf("clean ledger reported violations: %v", v)
	}
}

func TestAuditorDetectsViolations(t *testing.T) {
	lg := auditLedger(t)
	a := &Auditor{
		Ledger:         lg,
		PendingHolds:   func() float64 { return 64e3 }, // leaked hold
		LiveConns:      func() []string { return nil },
		ConvergenceGap: func() float64 { return 1.0 }, // diverged
	}
	v := a.CheckFinal()
	if len(v) != 2 {
		t.Fatalf("violations = %v, want leaked-holds and maxmin-divergence", v)
	}
	if !strings.Contains(v[0], "leaked-holds") || !strings.Contains(v[1], "maxmin-divergence") {
		t.Fatalf("unexpected violations %v", v)
	}
}
