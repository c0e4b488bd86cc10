package faults

import (
	"fmt"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/randx"
)

// Driver executes component faults against the integrated system. The
// integration layer (core.Manager) implements it; keeping it an
// interface here lets faults stay ignorant of every protocol package.
type Driver interface {
	// FailLink marks a backbone link down, terminating connections
	// routed over it.
	FailLink(link string) error
	// RestoreLink brings a failed link back and re-advertises its
	// excess capacity.
	RestoreLink(link string) error
	// FailCell takes a cell's air interface out of service.
	FailCell(cell string) error
	// RestoreCell returns a failed cell to service.
	RestoreCell(cell string) error
	// CrashZone crashes a zone's profile server with state loss; the
	// server warm-restarts empty.
	CrashZone(zone string) error
	// Blackout forces a cell's wireless channel to its worst level for
	// the given duration.
	Blackout(cell string, duration float64) error
	// CrashSignaling crashes the signaling plane, abandoning in-flight
	// setup sessions without releasing their tentative holds.
	CrashSignaling() error
}

// The seed salts decorrelate each plane's injector RNG from the run's
// other streams (manager, mobility, workload) derived from the same
// master seed. The pinned fault traces depend on both values.
const (
	simSeedSalt  = 0x6661756c7473 // "faults"
	liveSeedSalt = 0x6e657466     // "netf"
)

// Verdict is the injector's decision for one message. The zero value
// delivers the message untouched.
type Verdict struct {
	// Drop suppresses the message; the sending protocol sees a loss and
	// runs its own retransmission machinery.
	Drop bool
	// Dup delivers the message a second time right after the first
	// (protocol handlers are idempotent, so a duplicate has no state
	// effect).
	Dup bool
	// Delay is extra latency reported to the sending protocol.
	Delay float64
	// Reorder, when positive, defers the frame's fabric delivery by this
	// much while the protocol proceeds undelayed, so frames sent later
	// overtake it (live plane only).
	Reorder float64
}

// Injector executes a Plan's message rules, and on the simulator its
// timed component faults. All randomness comes from one seed-derived
// RNG, so identical (plan, plane, seed) triples inject identically on
// the single-threaded simulator clock; on the wall-clock UDP path calls
// are serialized but their order is scheduling-dependent, so UDP
// injection is random-but-unreproducible by design.
//
// A nil injector, or one built from an empty plan, decides every message
// without drawing from the RNG and without allocating.
type Injector struct {
	plan *Plan
	rng  *randx.Rand
	bus  *eventbus.Bus

	// Drops, Dups, Delays, Reorders count message-rule firings;
	// Components counts timed faults executed (restorations included).
	Drops, Dups, Delays, Reorders, Components int
	// Errors collects driver failures (unknown targets, etc.); the
	// schedule keeps running.
	Errors []string
}

// NewInjector builds an injector for the plan on the given plane, which
// selects the seed salt. A nil bus is allowed (faults fire silently); a
// nil or empty plan yields an injector that never draws.
func NewInjector(plan *Plan, pl Plane, seed int64, bus *eventbus.Bus) *Injector {
	salt := int64(simSeedSalt)
	if pl == Live {
		salt = liveSeedSalt
	}
	return &Injector{plan: plan, rng: randx.New(seed ^ salt), bus: bus}
}

// DeliverSignal is the signal.Options.Deliver hook: it decides the fate
// of one setup-protocol control message.
func (in *Injector) DeliverSignal(conn string, hop int) (drop bool, delay float64) {
	v := in.decide("signal", "", conn, hop)
	return v.Drop, v.Delay
}

// DeliverMaxmin is the maxmin.ProtocolOptions.Deliver hook: it decides
// the fate of one ADVERTISE (update=false) or UPDATE (update=true)
// packet hop.
func (in *Injector) DeliverMaxmin(conn string, hop int, update bool) (drop bool, delay float64) {
	v := in.decide("maxmin", "", conn, hop)
	return v.Drop, v.Delay
}

// Frame decides the fate of one live-plane frame of protocol family
// proto ("signal" or "maxmin") crossing the backbone link link.
func (in *Injector) Frame(proto, link string) Verdict {
	return in.decide(proto, link, "", 0)
}

// decide evaluates the message rules in plan order, publishing one
// FaultMessage per firing. A drop that fires wins immediately; dup,
// delay and reorder compose (delays and reorder deferrals accumulate).
func (in *Injector) decide(proto, link, conn string, hop int) Verdict {
	var v Verdict
	if in == nil || in.plan == nil {
		return v
	}
	for _, r := range in.plan.Messages {
		if r.Proto != "any" && r.Proto != proto {
			continue
		}
		if r.Link != "" && r.Link != link {
			continue
		}
		if !in.rng.Bernoulli(r.Prob) {
			continue
		}
		switch r.Action {
		case "drop":
			in.Drops++
			v.Drop = true
		case "dup":
			in.Dups++
			v.Dup = true
		case "delay":
			in.Delays++
			v.Delay += r.Delay
		case "reorder":
			in.Reorders++
			v.Reorder += r.Delay
		}
		eventbus.Pub(in.bus, eventbus.FaultMessage{Proto: proto, Action: r.Action, Conn: conn, Hop: hop, Delay: r.Delay})
		if v.Drop {
			return v
		}
	}
	return v
}

// Arm schedules every timed fault of the plan on the simulator. Faults
// with a duration also schedule their restoration. Call once, before the
// simulation runs.
func (in *Injector) Arm(sim *des.Simulator, d Driver) {
	if in == nil || in.plan == nil || d == nil {
		return
	}
	for _, f := range in.plan.Timed {
		f := f
		sim.Post(f.At, func() { in.apply(f, d) })
		if f.For > 0 && f.Action != "blackout" {
			restore := TimedFault{At: f.At + f.For, Action: restoreAction(f.Action), Target: f.Target}
			sim.Post(restore.At, func() { in.apply(restore, d) })
		}
	}
}

func restoreAction(action string) string {
	switch action {
	case "link-down":
		return "link-up"
	case "cell-out":
		return "cell-restore"
	default:
		return action
	}
}

// apply publishes the fault event and executes it through the driver.
func (in *Injector) apply(f TimedFault, d Driver) {
	in.Components++
	eventbus.Pub(in.bus, eventbus.FaultComponent{Action: f.Action, Target: f.Target, For: f.For})
	var err error
	switch f.Action {
	case "link-down":
		err = d.FailLink(f.Target)
	case "link-up":
		err = d.RestoreLink(f.Target)
	case "cell-out":
		err = d.FailCell(f.Target)
	case "cell-restore":
		err = d.RestoreCell(f.Target)
	case "crash-zone":
		err = d.CrashZone(f.Target)
	case "blackout":
		err = d.Blackout(f.Target, f.For)
	case "crash-signaling":
		err = d.CrashSignaling()
	default:
		err = fmt.Errorf("faults: unknown action %q", f.Action)
	}
	if err != nil {
		in.Errors = append(in.Errors, fmt.Sprintf("t=%g %s %s: %v", f.At, f.Action, f.Target, err))
	}
}
