package main

import (
	"time"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
	"armnet/internal/strategy"
)

// layerSample accumulates a traced execution's per-layer readings, each
// taken at a layer's public entry points from the benchmark's side.
type layerSample struct {
	// core: the mobility handler's Manager calls.
	coreOps                                         int64
	coreBusy                                        time.Duration
	coreOpUS                                        []float64
	coreSetups, coreBlocks, coreHandoffs, coreDrops int64
	// admission: the forwarding Table 2 admitter.
	admCalls, admAdmitted int64
	admBusy               time.Duration
	admCallUS             []float64
	// maxmin: the forwarding allocator and its Stats().
	mmCalls                               int64
	mmBusy                                time.Duration
	mmMessages, mmSessions, mmRetransmits int64
	// des: events fired, and RunUntil time outside the core calls.
	events   uint64
	dispatch time.Duration
	// eventbus: records seen by the counting subscriber, or written to
	// the live run's JSONL traces.
	records, traceBytes int64
	// topology and mobility: world construction and input generation.
	topoBuild, mobGen time.Duration
	moves             int64
	// wire and testnet: the live run's Result, and the ModeSim run of
	// the same script.
	frames, frameDrops, commits, aborts, violations int64
	simRun                                          time.Duration
}

// scale multiplies every host-time reading by f.
func (ls *layerSample) scale(f float64) {
	for _, d := range []*time.Duration{&ls.coreBusy, &ls.admBusy, &ls.mmBusy, &ls.dispatch, &ls.topoBuild, &ls.mobGen, &ls.simRun} {
		*d = scaleDur(*d, f)
	}
	scaleUS(ls.coreOpUS, f)
	scaleUS(ls.admCallUS, f)
}

// Registry names of the forwarding strategies the traced run selects.
const (
	tracedAdmitter  = "perfbench-table2"
	tracedAllocator = "perfbench-maxmin"
)

// active is the sample the next traced world's strategies report to.
// Worlds are built and run one at a time on one goroutine, and each
// strategy captures the sample when it is constructed.
var active *layerSample

func init() {
	strategy.RegisterAdmitter(tracedAdmitter, func(lg *admission.Ledger, bus *eventbus.Bus) strategy.Admitter {
		inner, err := strategy.NewAdmitter(strategy.DefaultAdmitter, lg, bus)
		if err != nil {
			panic(err) // the default admitter registers itself at init
		}
		return &timedAdmitter{inner: inner, ls: active}
	})
	strategy.RegisterAllocator(tracedAllocator, func(sim *des.Simulator, opts maxmin.ProtocolOptions) strategy.Allocator {
		inner, err := strategy.NewAllocator(strategy.DefaultAllocator, sim, opts)
		if err != nil {
			panic(err) // the default allocator registers itself at init
		}
		return &timedAllocator{inner: inner, ls: active}
	})
}

// timedAdmitter forwards to the paper's Table 2 admitter and times each
// call.
type timedAdmitter struct {
	inner strategy.Admitter
	ls    *layerSample
}

func (a *timedAdmitter) Name() string { return a.inner.Name() }

func (a *timedAdmitter) Admit(t admission.Test) (admission.Result, error) {
	start := time.Now()
	res, err := a.inner.Admit(t)
	d := time.Since(start)
	a.ls.admCalls++
	a.ls.admBusy += d
	a.ls.admCallUS = append(a.ls.admCallUS, float64(d)/float64(time.Microsecond))
	if err == nil && res.Admitted {
		a.ls.admAdmitted++
	}
	return res, err
}

// timedAllocator forwards to the paper's maxmin allocator and times
// each call that does protocol work.
type timedAllocator struct {
	inner strategy.Allocator
	ls    *layerSample
}

func (a *timedAllocator) done(start time.Time) {
	a.ls.mmCalls++
	a.ls.mmBusy += time.Since(start)
}

func (a *timedAllocator) Name() string { return a.inner.Name() }

func (a *timedAllocator) AddLink(name string, capacity float64) error {
	defer a.done(time.Now())
	return a.inner.AddLink(name, capacity)
}

func (a *timedAllocator) AddSession(s strategy.Session) error {
	defer a.done(time.Now())
	return a.inner.AddSession(s)
}

func (a *timedAllocator) RemoveSession(id string) {
	defer a.done(time.Now())
	a.inner.RemoveSession(id)
}

func (a *timedAllocator) Kick(id string) bool {
	defer a.done(time.Now())
	return a.inner.Kick(id)
}

func (a *timedAllocator) CapacityChanged(link string, capacity float64) (int, error) {
	defer a.done(time.Now())
	return a.inner.CapacityChanged(link, capacity)
}

func (a *timedAllocator) Rates() map[string]float64 {
	defer a.done(time.Now())
	return a.inner.Rates()
}

func (a *timedAllocator) Bottlenecks() []strategy.LinkBottleneck {
	defer a.done(time.Now())
	return a.inner.Bottlenecks()
}

func (a *timedAllocator) Stats() strategy.ControlStats { return a.inner.Stats() }

func (a *timedAllocator) SetOnUpdate(fn func(conn string, rate float64)) { a.inner.SetOnUpdate(fn) }

func (a *timedAllocator) SetBus(bus *eventbus.Bus) { a.inner.SetBus(bus) }
