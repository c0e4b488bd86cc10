// Package faults is the deterministic fault-injection subsystem for both
// control planes the repository runs: the simulator and the live wire
// (internal/testnet). One Plan grammar composes probabilistic
// control-message rules with timed faults; one Injector evaluates the
// message rules from a seed-derived RNG; each plane rejects, before its
// run starts, what it cannot drive (Plan.Check).
//
// On the simulator the Injector's Deliver* methods satisfy the plain
// delivery-hook function types of internal/signal and internal/maxmin
// structurally, and Arm executes the timed component faults through the
// Driver interface the integration layer implements, so the package
// knows nothing about the protocol packages it perturbs. On the live
// plane the testnet's fault transport asks the same Injector for a
// per-frame Verdict and schedules the node faults itself. An Auditor
// checks the recovery invariants (no leaked holds, ledger conservation,
// maxmin re-convergence) after chaos runs on either plane.
package faults

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Plane names a plan executor; Check rejects what a plane cannot drive.
type Plane int

const (
	// Sim is the simulator: core.Manager drives the plan.
	Sim Plane = iota
	// Live is the live wire: the testnet fault transport drives the plan.
	Live
)

func (p Plane) String() string {
	if p == Live {
		return "live"
	}
	return "sim"
}

// MsgRule is one probabilistic control-message fault: with probability
// Prob, the rule acts on each delivered message of the matching protocol.
type MsgRule struct {
	// Proto selects the protocol: "signal", "maxmin", or "any".
	Proto string
	// Action is "drop", "dup", "delay", or "reorder" (live only).
	Action string
	// Prob is the per-message firing probability in [0,1].
	Prob float64
	// Delay is the added latency in seconds (delay rules: reported to
	// the sending protocol; reorder rules: the frame's fabric delivery
	// is deferred by this much while the protocol proceeds, letting
	// later frames overtake it).
	Delay float64
	// Link, when non-empty, restricts the rule to frames crossing that
	// backbone link (live only).
	Link string
}

// TimedFault is one scheduled fault.
type TimedFault struct {
	// At is the fault time in seconds from run (or soak epoch) start.
	At float64
	// Action is a component action the simulator drives ("link-down",
	// "link-up", "cell-out", "cell-restore", "crash-zone", "blackout",
	// "crash-signaling") or a node action the live plane drives
	// ("partition", "crash").
	Action string
	// Target names the link, cell, zone, or node agent (empty for
	// crash-signaling).
	Target string
	// For, when positive, schedules the matching restoration at At+For
	// (link-down→link-up, cell-out→cell-restore, partition→heal,
	// crash→restart; blackout and partition require it).
	For float64
}

// Plan is a composed fault schedule. The zero value (and a nil *Plan)
// injects nothing.
type Plan struct {
	Messages []MsgRule
	Timed    []TimedFault
}

// Duration rules of a timed action's `for <duration>` suffix.
const (
	forNone = iota
	forOptional
	forRequired
)

// timedShapes lists every timed action: the plane that drives it,
// whether it names a target, and its duration rule.
var timedShapes = map[string]struct {
	plane  Plane
	target bool
	dur    int
}{
	"link-down":       {Sim, true, forOptional},
	"link-up":         {Sim, true, forNone},
	"cell-out":        {Sim, true, forOptional},
	"cell-restore":    {Sim, true, forNone},
	"crash-zone":      {Sim, true, forNone},
	"blackout":        {Sim, true, forRequired},
	"crash-signaling": {Sim, false, forNone},
	"partition":       {Live, true, forRequired},
	"crash":           {Live, true, forOptional},
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Messages) == 0 && len(p.Timed) == 0)
}

// Check returns an error naming the first rule of p that the plane
// cannot drive: the simulator has no reorder, no per-link filter and no
// node agents; the live plane has no component actions. A nil plan
// passes.
func (p *Plan) Check(pl Plane) error {
	if p == nil {
		return nil
	}
	for _, r := range p.Messages {
		if pl == Sim && (r.Action == "reorder" || r.Link != "") {
			return fmt.Errorf("faults: the %s plane cannot drive %q", pl, r)
		}
	}
	for _, f := range p.Timed {
		if timedShapes[f.Action].plane != pl {
			return fmt.Errorf("faults: the %s plane cannot drive %q", pl, f)
		}
	}
	return nil
}

// String renders the rule in the ParsePlan grammar.
func (r MsgRule) String() string {
	s := fmt.Sprintf("%s %s %g", r.Action, r.Proto, r.Prob)
	if r.Action == "delay" || r.Action == "reorder" {
		s += fmt.Sprintf(" %g", r.Delay)
	}
	if r.Link != "" {
		s += " on " + r.Link
	}
	return s
}

// String renders the fault in the ParsePlan grammar.
func (f TimedFault) String() string {
	s := fmt.Sprintf("at %g %s", f.At, f.Action)
	if f.Target != "" {
		s += " " + f.Target
	}
	if f.For > 0 {
		s += fmt.Sprintf(" for %g", f.For)
	}
	return s
}

// String renders the plan back in the ParsePlan grammar, one rule per
// line, timed faults sorted by time.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range p.Messages {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	timed := append([]TimedFault(nil), p.Timed...)
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].At < timed[j].At })
	for _, f := range timed {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ParsePlan reads the line-oriented plan grammar:
//
//	# comments and blank lines are ignored
//	drop    <proto> <prob> [on <link>]            # proto: signal | maxmin | any
//	dup     <proto> <prob> [on <link>]
//	delay   <proto> <prob> <seconds> [on <link>]
//	reorder <proto> <prob> <seconds> [on <link>]  # live only
//	at <time> link-down <link> [for <duration>]    # sim only, as are the next six
//	at <time> link-up <link>
//	at <time> cell-out <cell> [for <duration>]
//	at <time> cell-restore <cell>
//	at <time> crash-zone <zone>
//	at <time> blackout <cell> for <duration>
//	at <time> crash-signaling
//	at <time> partition <node> for <duration>     # live only, as is crash
//	at <time> crash <node> [for <duration>]
//
// `on <link>` is live only. Probabilities must lie in [0,1]; times and
// durations must be finite and non-negative. Errors carry the 1-based
// line number. The parser accepts both planes' rules; Check rejects, at
// run start, what a plane cannot drive.
func ParsePlan(r io.Reader) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "drop", "dup", "delay", "reorder":
			err = p.parseMsgRule(fields)
		case "at":
			err = p.parseTimed(fields)
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return p, nil
}

func (p *Plan) parseMsgRule(fields []string) error {
	rule := MsgRule{Action: fields[0]}
	if n := len(fields); n >= 2 && fields[n-2] == "on" {
		rule.Link = fields[n-1]
		fields = fields[:n-2]
	}
	want := 3
	if rule.Action == "delay" || rule.Action == "reorder" {
		want = 4
	}
	if len(fields) != want {
		return fmt.Errorf("%s needs %d arguments, got %d", rule.Action, want-1, len(fields)-1)
	}
	rule.Proto = fields[1]
	switch rule.Proto {
	case "signal", "maxmin", "any":
	default:
		return fmt.Errorf("unknown protocol %q (want signal, maxmin, or any)", rule.Proto)
	}
	prob, err := parseFinite(fields[2])
	if err != nil {
		return fmt.Errorf("bad probability %q: %w", fields[2], err)
	}
	if prob < 0 || prob > 1 {
		return fmt.Errorf("probability %v outside [0,1]", prob)
	}
	rule.Prob = prob
	if want == 4 {
		d, err := parseFinite(fields[3])
		if err != nil {
			return fmt.Errorf("bad %s %q: %w", rule.Action, fields[3], err)
		}
		if d < 0 {
			return fmt.Errorf("%s %v must be non-negative", rule.Action, d)
		}
		rule.Delay = d
	}
	p.Messages = append(p.Messages, rule)
	return nil
}

func (p *Plan) parseTimed(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("at needs a time and an action")
	}
	at, err := parseFinite(fields[1])
	if err != nil {
		return fmt.Errorf("bad time %q: %w", fields[1], err)
	}
	if at < 0 {
		return fmt.Errorf("time %v must be non-negative", at)
	}
	f := TimedFault{At: at, Action: fields[2]}
	shape, ok := timedShapes[f.Action]
	if !ok {
		return fmt.Errorf("unknown fault action %q", f.Action)
	}
	rest := fields[3:]
	if shape.target {
		if len(rest) == 0 {
			return fmt.Errorf("%s needs a target", f.Action)
		}
		f.Target = rest[0]
		rest = rest[1:]
	}
	if len(rest) > 0 {
		if shape.dur == forNone || len(rest) != 2 || rest[0] != "for" {
			return fmt.Errorf("trailing arguments %v", rest)
		}
		dur, err := parseFinite(rest[1])
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", rest[1], err)
		}
		if dur <= 0 {
			return fmt.Errorf("duration %v must be positive", dur)
		}
		f.For = dur
	}
	if shape.dur == forRequired && f.For <= 0 {
		return fmt.Errorf("%s needs `for <duration>`", f.Action)
	}
	p.Timed = append(p.Timed, f)
	return nil
}

// parseFinite parses a float64 and rejects NaN and ±Inf (the scenario
// clocks cannot absorb them).
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v != v || v > 1e300 || v < -1e300 {
		return 0, fmt.Errorf("value %v is not finite", v)
	}
	return v, nil
}
