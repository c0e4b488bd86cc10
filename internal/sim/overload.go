package sim

import (
	"fmt"
	"strings"

	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/mobility"
	"armnet/internal/overload"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// policy resolves the Policy spec; nil means disabled.
func (o *Overload) policy() (*overload.Policy, error) {
	if o == nil {
		return nil, nil
	}
	spec := strings.TrimSpace(o.Policy)
	if spec == "" {
		return nil, nil
	}
	if spec == "default" {
		p := overload.Default()
		return &p, nil
	}
	return overload.ParsePolicy(strings.NewReader(o.Policy))
}

// overloadCollector folds the overload event kinds into the summary —
// stage churn, the breaker's transition path, and the peak stage.
type overloadCollector struct {
	stageChanges int64
	breakerPath  []string
	peak         string
	peakOrd      int
}

func newOverloadCollector(bus *eventbus.Bus) *overloadCollector {
	c := &overloadCollector{peak: "normal"}
	bus.Subscribe(c.observe, eventbus.KindOverloadStage, eventbus.KindBreakerState)
	return c
}

var stageOrder = map[string]int{"normal": 0, "degrade": 1, "shed-static": 2, "shed-mobile": 3}

func (c *overloadCollector) observe(r eventbus.Record) {
	switch ev := r.Event.(type) {
	case eventbus.OverloadStage:
		c.stageChanges++
		if ord := stageOrder[ev.To]; ord > c.peakOrd {
			c.peakOrd, c.peak = ord, ev.To
		}
	case eventbus.BreakerState:
		c.breakerPath = append(c.breakerPath, ev.From+">"+ev.To)
	}
}

// ramp schedules the overload workload. Portable i's whole walk —
// initial placement included — shifts by rampWindow·i/N, so arrivals
// spread over the ramp window and the offered load climbs toward its
// peak. Per-portable RNGs keep every walk independent of the population
// size.
func (s Scenario) ramp(simulator *des.Simulator, mgr *core.Manager, env *topology.Environment, req qos.Request) error {
	// openWith retries shed, fast-failed, and rejected setups a bounded
	// number of times — the impatient-user behavior that keeps pressure
	// on the control plane during the ramp.
	var openWith func(portable string, attempt int)
	openWith = func(portable string, attempt int) {
		retry := func() {
			if attempt < setupRetries {
				simulator.PostAfter(retryBackoff, func() { openWith(portable, attempt+1) })
			}
		}
		err := mgr.OpenConnectionAsync(portable, req, func(connID string, err error) {
			if err != nil {
				retry()
				return
			}
			simulator.PostAfter(connLifetime, func() { _ = mgr.CloseConnection(connID) })
		})
		if err != nil {
			// Synchronous refusal: unknown portable (gone) is final;
			// sheds and breaker fast-fails retry like any failure.
			if mgr.Portable(portable) != nil {
				retry()
			}
		}
	}
	for i := 0; i < s.Portables; i++ {
		name := fmt.Sprintf("p%02d", i)
		offset := rampWindow * float64(i) / float64(s.Portables)
		horizon := s.Duration - offset
		if horizon <= 0 {
			continue
		}
		walk, err := mobility.RandomWalk(env.Universe, []string{name}, s.Dwell, horizon, randx.New(s.Seed+1000+int64(i)*7919))
		if err != nil {
			return err
		}
		for _, mv := range walk.Moves {
			mv := mv
			simulator.Post(offset+mv.Time, func() {
				if mv.From == "" {
					if err := mgr.PlacePortable(mv.Portable, mv.To); err == nil {
						for c := 0; c < connsPer; c++ {
							openWith(mv.Portable, 0)
						}
					}
					return
				}
				_ = mgr.HandoffPortable(mv.Portable, mv.To)
			})
		}
	}
	return nil
}
