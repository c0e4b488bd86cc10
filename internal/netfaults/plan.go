// Package netfaults is the deterministic fault layer for the live
// transports: where internal/faults perturbs the *simulated* control
// plane through the protocol delivery hooks, netfaults perturbs the
// *wire* — the encoded frames the testnet transports carry between the
// controller and its node agents.
//
// A plan has two parts:
//
//   - Message rules, evaluated per frame in plan order by a seed-salted
//     Injector: drop, dup, delay, and reorder, each with a firing
//     probability, an optional protocol selector (signal | maxmin |
//     any), and an optional `on <link>` filter restricting the rule to
//     frames crossing one backbone link.
//   - Timed node faults: `partition` (frames to the agent are dropped
//     for a window) and `crash` (the agent additionally loses its
//     mirrored state and must be re-synced after restart). These are
//     scheduled by the harness on its scenario clock, so the same plan
//     runs on the simulator clock (deterministic loopback) and on wall
//     time (UDP).
package netfaults

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Rule is one probabilistic per-frame fault.
type Rule struct {
	// Proto selects the protocol family: "signal", "maxmin", or "any".
	Proto string
	// Action is "drop", "dup", "delay", or "reorder".
	Action string
	// Prob is the per-frame firing probability in [0,1].
	Prob float64
	// Delay is the added latency in seconds (delay rules: reported to
	// the sending protocol; reorder rules: the frame's fabric delivery
	// is deferred by this much while the protocol proceeds, letting
	// later frames overtake it).
	Delay float64
	// Link, when non-empty, restricts the rule to frames crossing that
	// backbone link.
	Link string
}

// NodeFault is one scheduled transport-level node fault.
type NodeFault struct {
	// At is the fault time in seconds from scenario (or epoch) start.
	At float64
	// Action is "partition" or "crash".
	Action string
	// Node names the agent ("core", "east", ...).
	Node string
	// For is the outage duration. Partitions require it; a crash with
	// For == 0 never restarts on its own (the harness may force a
	// restart at a heal boundary).
	For float64
}

// Plan is a composed wire-fault schedule. The zero value (and a nil
// *Plan) injects nothing.
type Plan struct {
	Rules []Rule
	Nodes []NodeFault
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Rules) == 0 && len(p.Nodes) == 0)
}

// String renders the plan back in the ParsePlan grammar, one rule per
// line, node faults sorted by time.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range p.Rules {
		switch r.Action {
		case "delay", "reorder":
			fmt.Fprintf(&b, "%s %s %g %g", r.Action, r.Proto, r.Prob, r.Delay)
		default:
			fmt.Fprintf(&b, "%s %s %g", r.Action, r.Proto, r.Prob)
		}
		if r.Link != "" {
			fmt.Fprintf(&b, " on %s", r.Link)
		}
		b.WriteByte('\n')
	}
	nodes := append([]NodeFault(nil), p.Nodes...)
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].At < nodes[j].At })
	for _, f := range nodes {
		fmt.Fprintf(&b, "at %g %s %s", f.At, f.Action, f.Node)
		if f.For > 0 {
			fmt.Fprintf(&b, " for %g", f.For)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParsePlan reads the line-oriented plan grammar:
//
//	# comments and blank lines are ignored
//	drop    <proto> <prob> [on <link>]        # proto: signal | maxmin | any
//	dup     <proto> <prob> [on <link>]
//	delay   <proto> <prob> <seconds> [on <link>]
//	reorder <proto> <prob> <seconds> [on <link>]
//	at <time> partition <node> for <duration>
//	at <time> crash <node> [for <duration>]
//
// Probabilities must lie in [0,1]; times and durations must be finite
// and non-negative. Errors carry the 1-based line number.
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
			err = p.parseRule(fields)
		case "at":
			err = p.parseNode(fields)
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("netfaults: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netfaults: %w", err)
	}
	return p, nil
}

// ParsePlanString is ParsePlan over an in-memory spec.
func ParsePlanString(s string) (*Plan, error) {
	return ParsePlan(strings.NewReader(s))
}

func (p *Plan) parseRule(fields []string) error {
	action := fields[0]
	rule := Rule{Action: action}
	// Optional trailing `on <link>` filter.
	if n := len(fields); n >= 2 && fields[n-2] == "on" {
		rule.Link = fields[n-1]
		fields = fields[:n-2]
	}
	want := 3
	if action == "delay" || action == "reorder" {
		want = 4
	}
	if len(fields) != want {
		return fmt.Errorf("%s needs %d arguments, got %d", action, want-1, len(fields)-1)
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
			return fmt.Errorf("bad %s duration %q: %w", action, fields[3], err)
		}
		if d < 0 {
			return fmt.Errorf("%s duration %v must be non-negative", action, d)
		}
		rule.Delay = d
	}
	p.Rules = append(p.Rules, rule)
	return nil
}

func (p *Plan) parseNode(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("at needs a time, an action, and a node")
	}
	at, err := parseFinite(fields[1])
	if err != nil {
		return fmt.Errorf("bad time %q: %w", fields[1], err)
	}
	if at < 0 {
		return fmt.Errorf("time %v must be non-negative", at)
	}
	f := NodeFault{At: at, Action: fields[2], Node: fields[3]}
	switch f.Action {
	case "partition", "crash":
	default:
		return fmt.Errorf("unknown node fault %q (want partition or crash)", f.Action)
	}
	rest := fields[4:]
	if len(rest) > 0 {
		if len(rest) != 2 || rest[0] != "for" {
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
	if f.Action == "partition" && f.For <= 0 {
		return fmt.Errorf("partition needs `for <duration>`")
	}
	p.Nodes = append(p.Nodes, f)
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
