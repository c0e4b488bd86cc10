package sim

import (
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/core"
	"armnet/internal/eventbus"
	"armnet/internal/predict"
	"armnet/internal/profile"
	"armnet/internal/randx"
	"armnet/internal/stats"
	"armnet/internal/topology"
)

// CampusResult summarizes one integrated run.
type CampusResult struct {
	Mode core.ReservationMode
	// DropRate is dropped handoffs / attempted.
	DropRate float64
	// BlockRate is blocked new connections / requested.
	BlockRate float64
	// AdvanceReservations counts reservation placements.
	AdvanceReservations int64
	// PoolClaims counts unpredicted handoffs.
	PoolClaims int64
	// PredictedLatency / UnpredictedLatency are mean handoff signaling
	// latencies in seconds (0 when no samples).
	PredictedLatency, UnpredictedLatency float64
	// PredictedShare is the fraction of handoffs that were predicted.
	PredictedShare float64
	// Handoffs is the attempted count.
	Handoffs int64
}

// campusCollector derives the harness's summary statistics directly from
// the event stream, instead of scraping manager counters after the run.
// It subscribes for exactly the kinds it folds.
type campusCollector struct {
	requested, blocked int64
	attempted, dropped int64
	advance, pool      int64
	predLat, unpredLat stats.Welford
}

func newCampusCollector(bus *eventbus.Bus) *campusCollector {
	c := &campusCollector{}
	bus.Subscribe(c.observe,
		eventbus.KindConnectionRequested,
		eventbus.KindConnectionBlocked,
		eventbus.KindHandoffAttempt,
		eventbus.KindHandoffOutcome,
		eventbus.KindHandoffLatency,
		eventbus.KindAdvanceReservation,
		eventbus.KindPoolClaim,
	)
	return c
}

func (c *campusCollector) observe(r eventbus.Record) {
	switch ev := r.Event.(type) {
	case eventbus.ConnectionRequested:
		c.requested++
	case eventbus.ConnectionBlocked:
		c.blocked++
	case eventbus.HandoffAttempt:
		c.attempted++
	case eventbus.HandoffOutcome:
		if ev.Dropped {
			c.dropped++
		}
	case eventbus.HandoffLatency:
		if ev.Predicted {
			c.predLat.Observe(ev.Latency)
		} else {
			c.unpredLat.Observe(ev.Latency)
		}
	case eventbus.AdvanceReservation:
		c.advance++
	case eventbus.PoolClaim:
		c.pool++
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (c *campusCollector) result(mode core.ReservationMode) CampusResult {
	res := CampusResult{
		Mode:                mode,
		DropRate:            ratio(c.dropped, c.attempted),
		BlockRate:           ratio(c.blocked, c.requested),
		AdvanceReservations: c.advance,
		PoolClaims:          c.pool,
		Handoffs:            c.attempted,
	}
	res.PredictedLatency = c.predLat.Mean()
	res.UnpredictedLatency = c.unpredLat.Mean()
	if n := c.predLat.N() + c.unpredLat.N(); n > 0 {
		res.PredictedShare = float64(c.predLat.N()) / float64(n)
	}
	return res
}

// meanDownlinkUtil averages the committed utilization of every cell's
// wireless downlink. Universe.Cells is sorted, so the float sum is
// stable run to run.
func meanDownlinkUtil(env *topology.Environment, lg *admission.Ledger) float64 {
	cells := env.Universe.Cells()
	total, n := 0.0, 0
	for _, c := range cells {
		l := env.Backbone.Link(c.BaseStation, topology.AirNode(c.ID))
		if l == nil {
			continue
		}
		ls := lg.Link(l.ID)
		if ls == nil || ls.Capacity <= 0 {
			continue
		}
		total += (ls.SumMin() + ls.AdvanceReserved) / ls.Capacity
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// CorridorResult reports the §6.1 linear-movement prediction study.
type CorridorResult struct {
	Transits int
	Correct  int
}

// Accuracy returns Correct/Transits.
func (c CorridorResult) Accuracy() float64 {
	if c.Transits == 0 {
		return 0
	}
	return float64(c.Correct) / float64(c.Transits)
}

// RunCorridor validates the paper's corridor claim ("users typically move
// in the same direction across the cell, i.e. knowing the previous cell,
// the next cell can be predicted easily"): anonymous portables stream
// down a corridor chain in both directions; after a training phase the
// cell-profile predictor must call the next segment almost perfectly.
func RunCorridor(seed int64, length, walkers int) (CorridorResult, error) {
	if length < 4 {
		length = 6
	}
	if walkers <= 0 {
		walkers = 200
	}
	env, err := topology.BuildCorridor(length, 1.6e6)
	if err != nil {
		return CorridorResult{}, err
	}
	pred := predictNew(env)
	rng := randx.New(seed)
	cell := func(i int) topology.CellID { return topology.CellID(fmt.Sprintf("c%d", i)) }
	res := CorridorResult{}
	for w := 0; w < walkers; w++ {
		id := fmt.Sprintf("w%d", w)
		forward := rng.Bernoulli(0.5)
		evaluate := w >= walkers/2 // first half trains
		path := make([]int, length)
		for i := range path {
			if forward {
				path[i] = i
			} else {
				path[i] = length - 1 - i
			}
		}
		prev := topology.CellID("")
		for i := 0; i+1 < len(path); i++ {
			from, to := cell(path[i]), cell(path[i+1])
			if evaluate && i > 0 {
				// In `from`, having come from prev: predict.
				d := pred.NextCell(id, prev, from)
				res.Transits++
				if d.Target == to {
					res.Correct++
				}
			}
			pred.RecordHandoff(profile.Handoff{
				Portable: id, Prev: prev, From: from, To: to,
				Time: float64(w*length + i),
			})
			prev = from
		}
	}
	return res, nil
}

// predictNew builds a predictor for an environment (indirection avoids an
// import cycle in callers that only need the corridor study).
func predictNew(env *topology.Environment) *predict.Predictor {
	return predict.New(env.Universe, profile.ServerOptions{NpC: 100000})
}
