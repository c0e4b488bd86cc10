package sim

import (
	"fmt"
	"math"
	"strings"

	"armnet/internal/core"
	"armnet/internal/faults"
	"armnet/internal/maxmin"
)

// plan composes the explicit spec with the LossRate shorthand; a nil
// part arms no faults.
func (c *Chaos) plan() (*faults.Plan, error) {
	if c == nil {
		return nil, nil
	}
	p, err := faults.ParsePlan(strings.NewReader(c.Plan))
	if err != nil {
		return nil, err
	}
	if c.LossRate > 0 {
		if c.LossRate > 1 {
			return nil, fmt.Errorf("sim: loss rate %v outside [0,1]", c.LossRate)
		}
		p.Messages = append(p.Messages, faults.MsgRule{Proto: "any", Action: "drop", Prob: c.LossRate})
	}
	return p, nil
}

// newFaultAuditor wires the fault-recovery auditor (conservation, leaked
// holds, orphaned allocs, maxmin re-convergence within the auditor's
// default gap tolerance) to a manager's bus.
func newFaultAuditor(mgr *core.Manager) *faults.Auditor {
	gap := func() float64 {
		// Rival allocators have no WaterFill oracle: the maxmin
		// re-convergence audit only applies to the paper's protocol.
		if mgr.Adpt == nil || mgr.Adpt.Maxmin() == nil {
			return 0
		}
		pr := mgr.Adpt.Maxmin()
		oracle, err := maxmin.WaterFill(pr.Problem())
		if err != nil {
			return math.Inf(1)
		}
		return oracle.MaxDiff(pr.Rates())
	}
	aud := &faults.Auditor{
		Ledger:         mgr.Ledger(),
		PendingHolds:   mgr.SignalPlane().PendingTotal,
		LiveConns:      mgr.ConnIDs,
		ConvergenceGap: gap,
	}
	aud.Watch(mgr.Bus)
	return aud
}
