package testnet

import (
	"strings"
	"testing"

	"armnet/internal/des"
	"armnet/internal/faults"
	"armnet/internal/wire"
)

// BenchmarkLoopbackRoundTrip measures one full fabric round trip: encode
// a hop frame, deliver it to a node (decode + trace record + ack build),
// and verify the ack — the per-hop cost the loopback testnet adds on top
// of the simulated protocols.
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	sim := des.New()
	n := NewNode("bench", sim)
	buf := make([]byte, 0, wire.MaxFrame)
	msg := wire.SignalSetup{Conn: "portable-17:2", Hop: 3, Bandwidth: 256e3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := wire.AppendFrame(buf[:0], uint32(i+1), msg)
		if err != nil {
			b.Fatal(err)
		}
		ack, _, err := n.HandleFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		am, _, err := wire.Decode(ack)
		if err != nil {
			b.Fatal(err)
		}
		if a, ok := am.(wire.Ack); !ok || a.AckSeq != uint32(i+1) {
			b.Fatalf("bad ack %v", am)
		}
		if n.buf.Len() > 1<<20 {
			n.buf.Reset() // cap trace growth; the recorder keeps writing
		}
	}
}

// BenchmarkLoopbackScenario runs the whole scripted campus scenario over
// the loopback fabric — the end-to-end number the bench trajectory
// tracks for the testnet area.
func BenchmarkLoopbackScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Mode: ModeLoopback})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) > 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
	}
}

// BenchmarkNetfaultsVerdictEmpty is the zero-cost contract in numbers:
// the per-frame injector check on an empty plan — what every live frame
// pays when the chaos layer is armed but idle. It must stay allocation-
// free and a few nanoseconds, or wrapping the transport is no longer
// behaviour-preserving in spirit.
func BenchmarkNetfaultsVerdictEmpty(b *testing.B) {
	inj := faults.NewInjector(&faults.Plan{}, faults.Live, 1, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := inj.Frame("signal", "ap-off-1"); v.Drop || v.Dup {
			b.Fatal("empty plan produced a fault")
		}
	}
}

// BenchmarkNetfaultsVerdict measures the per-frame verdict on an active
// plan with one rule per fault family — the injection hot path a soak
// run exercises on every delivered frame.
func BenchmarkNetfaultsVerdict(b *testing.B) {
	plan, err := faults.ParsePlan(strings.NewReader(
		"drop signal 0.1\ndup maxmin 0.1\ndelay any 0.2 0.002\nreorder maxmin 0.15 0.004\n"))
	if err != nil {
		b.Fatal(err)
	}
	inj := faults.NewInjector(plan, faults.Live, 1, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inj.Frame("maxmin", "ap-off-1")
	}
}

// BenchmarkFaultyLoopbackScenario is the end-to-end cost of the chaos
// layer at rest: the full scripted scenario with the fault layer wired
// in but the plan empty. Compare against BenchmarkLoopbackScenario —
// the gap is the price of the wrapping itself.
func BenchmarkFaultyLoopbackScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Mode: ModeLoopback, Faults: &faults.Plan{}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) > 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
	}
}
