package reserve

import (
	"fmt"

	"armnet/internal/predict"
	"armnet/internal/profile"
	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// Meeting is one booking-calendar entry of a meeting room (§6.2.1):
// start time T_s, end time T_a, and the required resources N_m expressed
// as a number of attendees.
type Meeting struct {
	Start     float64
	End       float64
	Attendees int
}

// Validate reports whether the meeting entry is well formed.
func (m Meeting) Validate() error {
	if m.End <= m.Start {
		return fmt.Errorf("reserve: meeting ends (%v) before it starts (%v)", m.End, m.Start)
	}
	if m.Attendees <= 0 {
		return fmt.Errorf("reserve: meeting needs positive attendees, got %d", m.Attendees)
	}
	return nil
}

// MeetingConfig carries the paper's timer constants, overridable for
// sensitivity studies.
type MeetingConfig struct {
	// LeadIn is Δ_s: reservation starts this many seconds before T_s
	// (paper: 10 minutes).
	LeadIn float64
	// StartRelease is the timer started at T_s after which unused
	// arrival reservations are released (paper: 5 minutes).
	StartRelease float64
	// LeadOut is Δ_a: neighbor reservation starts this many seconds
	// before T_a (paper: 5 minutes).
	LeadOut float64
	// EndRelease is the timer started at T_a after which neighbors
	// release departure reservations (paper: 15 minutes).
	EndRelease float64
}

// DefaultMeetingConfig returns the constants used in the paper's
// simulations.
func DefaultMeetingConfig() MeetingConfig {
	return MeetingConfig{LeadIn: 600, StartRelease: 300, LeadOut: 300, EndRelease: 900}
}

// MeetingPolicy evaluates the meeting-room reservation rules for one
// meeting. The base station feeds it the arrival/departure counters it
// maintains (N_arrived, N_left); the policy answers how many attendee
// slots must be reserved in the room and in the neighborhood at time t.
type MeetingPolicy struct {
	Meeting Meeting
	Config  MeetingConfig
}

// NewMeetingPolicy validates and builds a policy.
func NewMeetingPolicy(m Meeting, cfg MeetingConfig) (*MeetingPolicy, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.LeadIn <= 0 || cfg.StartRelease < 0 || cfg.LeadOut <= 0 || cfg.EndRelease < 0 {
		return nil, fmt.Errorf("reserve: invalid meeting config %+v", cfg)
	}
	return &MeetingPolicy{Meeting: m, Config: cfg}, nil
}

// RoomSlots returns the number of attendee slots the room's base station
// must hold at time t, given that arrived attendees have shown up so far:
// from T_s - Δ_s the room reserves N_m - N_arrived(t); the reservation
// dies StartRelease seconds after T_s (unused slots released on timer
// expiry).
func (p *MeetingPolicy) RoomSlots(t float64, arrived int) int {
	m := p.Meeting
	if t < m.Start-p.Config.LeadIn || t >= m.Start+p.Config.StartRelease {
		return 0
	}
	slots := m.Attendees - arrived
	if slots < 0 {
		return 0
	}
	return slots
}

// NeighborSlots returns the number of attendee slots the neighboring
// cells must hold in aggregate at time t for the meeting's conclusion:
// from T_a - Δ_a the neighbors reserve for the attendees still present
// (arrived - left, capped by N_m - left per the paper); the reservation
// dies EndRelease seconds after T_a.
func (p *MeetingPolicy) NeighborSlots(t float64, arrived, left int) int {
	m := p.Meeting
	if t < m.End-p.Config.LeadOut || t >= m.End+p.Config.EndRelease {
		return 0
	}
	present := arrived - left
	cap := m.Attendees - left
	if cap < present {
		present = cap
	}
	if present < 0 {
		return 0
	}
	return present
}

// Active reports whether the policy has any effect at time t (used to
// garbage-collect finished meetings).
func (p *MeetingPolicy) Active(t float64) bool {
	return t < p.Meeting.End+p.Config.EndRelease
}

// LoungePlan is the reservation directive a lounge policy produces for
// one evaluation instant: bandwidth to advance-reserve per neighboring
// cell, and extra bandwidth to reserve in the cell itself.
type LoungePlan struct {
	// Neighbor maps each neighbor cell to the advance reservation it is
	// asked to hold, in bits/s.
	Neighbor map[topology.CellID]float64
	// Self is the additional reservation in the current cell, bits/s.
	Self float64
}

// Total returns the plan's aggregate reservation in bits/s: the self
// amount plus every neighbor hold, summed in cell-ID order so the float
// result is identical run to run.
func (p LoungePlan) Total() float64 {
	t := p.Self
	for _, id := range sortx.Keys(p.Neighbor) {
		t += p.Neighbor[id]
	}
	return t
}

// CafeteriaPlan evaluates §6.2.2 at time t for a cafeteria cell: predict
// next-slot departures by least squares over the last three slots, ask
// the neighbors to hold the split (by the cell profile's handoff
// distribution), and — when at least one neighbor is a default lounge —
// also self-reserve for the predicted arrivals, since a default neighbor
// "provides poor quality of next-cell prediction" and cannot be trusted
// to reserve here on our behalf.
func CafeteriaPlan(u *topology.Universe, cp *profile.CellProfile, t, perConnBW float64) LoungePlan {
	cell := u.Cell(cp.Cell)
	if cell == nil {
		return LoungePlan{Neighbor: map[topology.CellID]float64{}}
	}
	dep := cp.RecentDepartures(t, 3)
	nHandoff := predict.CafeteriaForecast(dep[0], dep[1], dep[2])
	probs := cp.Probabilities("")
	plan := LoungePlan{
		Neighbor: scaleSlots(predict.SplitForecast(nHandoff, probs, cell.Neighbors()), perConnBW),
	}
	if hasDefaultNeighbor(u, cell) {
		arr := cp.RecentArrivals(t, 3)
		nArrive := predict.CafeteriaForecast(arr[0], arr[1], arr[2])
		plan.Self = nArrive * perConnBW
	}
	return plan
}

// DefaultPlan evaluates §6.2.3 at time t for a default lounge: one-step-
// memory departure prediction split over the neighbors. Self-reservation
// for a default lounge with default neighbors is the job of the
// probabilistic algorithm (ProbabilisticPlan); the caller combines the
// two — this function reports whether that step applies.
func DefaultPlan(u *topology.Universe, cp *profile.CellProfile, t, perConnBW float64) (LoungePlan, bool) {
	cell := u.Cell(cp.Cell)
	if cell == nil {
		return LoungePlan{Neighbor: map[topology.CellID]float64{}}, false
	}
	n := predict.OneStepForecast(cp.DeparturesIn(cp.Slot(t)))
	probs := cp.Probabilities("")
	plan := LoungePlan{
		Neighbor: scaleSlots(predict.SplitForecast(n, probs, cell.Neighbors()), perConnBW),
	}
	return plan, hasDefaultNeighbor(u, cell)
}

func hasDefaultNeighbor(u *topology.Universe, cell *topology.Cell) bool {
	for _, nid := range cell.Neighbors() {
		if n := u.Cell(nid); n != nil && n.Class == topology.ClassLoungeDefault {
			return true
		}
	}
	return false
}

func scaleSlots(in map[topology.CellID]float64, perConnBW float64) map[topology.CellID]float64 {
	out := make(map[topology.CellID]float64, len(in))
	for k, v := range in {
		out[k] = v * perConnBW
	}
	return out
}
