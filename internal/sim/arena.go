package sim

import (
	"bytes"
	"fmt"

	"armnet/internal/obs"
	"armnet/internal/strategy"
)

// StrategyPair names one allocator/admitter combination competing in the
// arena. Empty names select the paper defaults.
type StrategyPair struct {
	Allocator string
	Admitter  string
}

// Label renders the pair as "allocator+admitter" with defaults resolved.
func (p StrategyPair) Label() string {
	a, d := p.Allocator, p.Admitter
	if a == "" {
		a = strategy.DefaultAllocator
	}
	if d == "" {
		d = strategy.DefaultAdmitter
	}
	return a + "+" + d
}

// defaultArenaPairs is the fixed head-to-head roster: the paper's own
// pair, each rival swapped in alone, and both rivals together.
var defaultArenaPairs = []StrategyPair{
	{Allocator: "maxmin", Admitter: "table2"},
	{Allocator: "erica", Admitter: "table2"},
	{Allocator: "logweight", Admitter: "table2"},
	{Allocator: "maxmin", Admitter: "measured"},
	{Allocator: "erica", Admitter: "measured"},
}

// Roster returns s under each strategy pair (nil selects the default
// roster: the paper's pair, each rival alone, and both rivals together),
// with Obs armed for the arena's summary columns. Every entry runs the
// *identical* workload — the workload RNGs never see the strategy
// choice — so outcome differences are attributable to the strategies
// alone.
func (s Scenario) Roster(pairs []StrategyPair) []Scenario {
	if len(pairs) == 0 {
		pairs = defaultArenaPairs
	}
	s.Obs = true
	return vary(s, pairs, func(c *Scenario, p StrategyPair) { c.Pair = p })
}

// RenderArena renders a roster's results as a stable text table — one
// row per pair, fixed column order, %.6g floats — suitable for golden
// pinning. The header describes the roster's shared workload.
func RenderArena(roster []Scenario, results []Result) []byte {
	if len(roster) == 0 {
		return nil
	}
	var b bytes.Buffer
	s := roster[0].withDefaults()
	fmt.Fprintf(&b, "arena seed=%d portables=%d duration=%gs dwell=%gs mode=%s bmin=%g bmax=%g pairs=%d\n",
		s.Seed, s.Portables, s.Duration, s.Dwell, s.Mode, s.BMin, s.BMax, len(results))
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %9s %10s %10s %9s %9s %9s %7s\n",
		"pair", "util", "drop", "block", "availability",
		"interr-p50", "interr-p99", "adapt/conn", "sessions", "messages", "retrans")
	for i, r := range results {
		var sum obs.Summary
		if r.Snapshot != nil {
			sum = r.Snapshot.Summary()
		}
		fmt.Fprintf(&b, "%-16s %9.6f %9.6f %9.6f %12.6f %10.6f %10.6f %10.4f %9d %9d %7d\n",
			roster[i].Pair.Label(), r.Utilization, r.DropRate, r.BlockRate,
			sum.Availability, sum.InterruptP50, sum.InterruptP99,
			sum.MeanAdaptation, r.Control.Sessions, r.Control.Messages,
			r.Control.Retransmits)
	}
	return b.Bytes()
}
