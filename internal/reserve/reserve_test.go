package reserve

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"armnet/internal/profile"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// paperClasses are the two connection types of the Figure 6 example:
// type 1 b=1, 1/μ=0.2, h=0.7; type 2 b=4, 1/μ=0.25, h=0.7.
func paperClasses() []ClassState {
	return []ClassState{
		{Bandwidth: 1, Mu: 1 / 0.2, Handoff: 0.7},
		{Bandwidth: 4, Mu: 1 / 0.25, Handoff: 0.7},
	}
}

func TestClassStateProbs(t *testing.T) {
	c := ClassState{Bandwidth: 1, Mu: 5, Handoff: 0.7}
	T := 0.1
	if got := c.StayProb(T); math.Abs(got-math.Exp(-0.5)) > 1e-12 {
		t.Fatalf("StayProb = %v", got)
	}
	want := (1 - math.Exp(-0.5)) * 0.7
	if got := c.MoveProb(T); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MoveProb = %v", got)
	}
	if err := (ClassState{Bandwidth: 0, Mu: 1, Handoff: 0.5}).Validate(); err == nil {
		t.Error("zero bandwidth validated")
	}
	if err := (ClassState{Bandwidth: 1, Mu: 0, Handoff: 0.5}).Validate(); err == nil {
		t.Error("zero mu validated")
	}
	if err := (ClassState{Bandwidth: 1, Mu: 1, Handoff: 1.5}).Validate(); err == nil {
		t.Error("handoff > 1 validated")
	}
}

func TestBinomialPMF(t *testing.T) {
	pmf := binomialPMF(4, 0.5)
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for i := range want {
		if math.Abs(pmf[i]-want[i]) > 1e-12 {
			t.Fatalf("pmf = %v", pmf)
		}
	}
	if pmf := binomialPMF(3, 0); pmf[0] != 1 {
		t.Fatal("p=0 pmf wrong")
	}
	if pmf := binomialPMF(3, 1); pmf[3] != 1 {
		t.Fatal("p=1 pmf wrong")
	}
	if pmf := binomialPMF(0, 0.3); pmf[0] != 1 {
		t.Fatal("n=0 pmf wrong")
	}
}

func TestNonBlockingProbEdges(t *testing.T) {
	classes := paperClasses()
	// Nothing anywhere: certainly non-blocking.
	p, err := NonBlockingProb(classes, []int{0, 0}, []int{0, 0}, 40, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-12 {
		t.Fatalf("empty system P_nb = %v", p)
	}
	// Load far beyond capacity with a window too short for anyone to
	// leave: essentially blocking.
	p, err = NonBlockingProb(classes, []int{200, 0}, []int{0, 0}, 40, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.01 {
		t.Fatalf("overloaded P_nb = %v, want ~0", p)
	}
	// Errors.
	if _, err := NonBlockingProb(classes, []int{1}, []int{0, 0}, 40, 0.05); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NonBlockingProb(classes, []int{1, 1}, []int{0, 0}, 40, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NonBlockingProb(classes, []int{-1, 0}, []int{0, 0}, 40, 0.05); err == nil {
		t.Error("negative N accepted")
	}
}

func TestNonBlockingProbMonotonicity(t *testing.T) {
	classes := paperClasses()
	prev := 2.0
	for _, n1 := range []int{0, 5, 10, 20, 30, 40} {
		p, err := NonBlockingProb(classes, []int{n1, 2}, []int{10, 1}, 40, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if p > prev+1e-12 {
			t.Fatalf("P_nb increased when adding load: N1=%d p=%v prev=%v", n1, p, prev)
		}
		prev = p
	}
}

func TestNonBlockingProbExactSmallCase(t *testing.T) {
	// One class, b=1, N=2 stayers with p_s, s=1 mover with p_m, cap=1:
	// blocking iff total > 1. P_nb = P(W<=1).
	c := ClassState{Bandwidth: 1, Mu: 1, Handoff: 0.5}
	T := 1.0
	ps := c.StayProb(T)
	pm := c.MoveProb(T)
	// W = j + l, j~Bin(2,ps), l~Bin(1,pm).
	pj := []float64{(1 - ps) * (1 - ps), 2 * ps * (1 - ps), ps * ps}
	pl := []float64{1 - pm, pm}
	want := 0.0
	for j := 0; j <= 2; j++ {
		for l := 0; l <= 1; l++ {
			if j+l <= 1 {
				want += pj[j] * pl[l]
			}
		}
	}
	got, err := NonBlockingProb([]ClassState{c}, []int{2}, []int{1}, 1, T)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P_nb = %v, want %v", got, want)
	}
}

func TestProbabilisticPlanPaperExample(t *testing.T) {
	classes := paperClasses()
	plan, err := ProbabilisticPlan(classes, []int{10, 1}, []int{10, 1}, 40, 0.05, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NonBlocking < 0.98 {
		t.Fatalf("plan violates target: P_nb = %v", plan.NonBlocking)
	}
	if plan.MaxConns[0] < 10 || plan.MaxConns[1] < 1 {
		t.Fatalf("caps below current occupancy: %v", plan.MaxConns)
	}
	used := plan.MaxConns[0]*1 + plan.MaxConns[1]*4
	if plan.Reserved != max(0, 40-used) {
		t.Fatalf("eq.7 violated: reserved %d, used %d", plan.Reserved, used)
	}
}

func TestProbabilisticPlanTighterQoSReservesMore(t *testing.T) {
	classes := paperClasses()
	loose, err := ProbabilisticPlan(classes, []int{5, 1}, []int{10, 1}, 40, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := ProbabilisticPlan(classes, []int{5, 1}, []int{10, 1}, 40, 0.1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Reserved < loose.Reserved {
		t.Fatalf("tighter P_QOS reserved less: tight=%d loose=%d", tight.Reserved, loose.Reserved)
	}
}

func TestProbabilisticPlanInfeasible(t *testing.T) {
	classes := paperClasses()
	// Stuff both cells far beyond capacity with a tiny allowed drop.
	plan, err := ProbabilisticPlan(classes, []int{60, 0}, []int{60, 0}, 40, 1.0, 1e-6)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if plan.MaxConns[0] != 60 {
		t.Fatalf("degenerate plan caps = %v", plan.MaxConns)
	}
}

func TestProbabilisticPlanValidation(t *testing.T) {
	classes := paperClasses()
	if _, err := ProbabilisticPlan(classes, []int{0, 0}, []int{0, 0}, 40, 0.05, 0); err == nil {
		t.Error("P_QOS = 0 accepted")
	}
	if _, err := ProbabilisticPlan(classes, []int{0}, []int{0, 0}, 40, 0.05, 0.01); err == nil {
		t.Error("mismatched n accepted")
	}
}

func TestMeetingPolicyRoomSlots(t *testing.T) {
	m := Meeting{Start: 3600, End: 7200, Attendees: 35}
	p, err := NewMeetingPolicy(m, DefaultMeetingConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Before the lead-in window: nothing.
	if got := p.RoomSlots(2900, 0); got != 0 {
		t.Fatalf("slots before window = %d", got)
	}
	// Inside the window, nobody arrived: full N_m.
	if got := p.RoomSlots(3100, 0); got != 35 {
		t.Fatalf("slots at window start = %d", got)
	}
	// Half arrived.
	if got := p.RoomSlots(3500, 17); got != 18 {
		t.Fatalf("slots with 17 arrived = %d", got)
	}
	// After the post-start release timer: released.
	if got := p.RoomSlots(3600+300, 17); got != 0 {
		t.Fatalf("slots after release = %d", got)
	}
	// Overfull meeting never yields negative slots.
	if got := p.RoomSlots(3500, 50); got != 0 {
		t.Fatalf("slots with overflow arrivals = %d", got)
	}
}

func TestMeetingPolicyNeighborSlots(t *testing.T) {
	m := Meeting{Start: 3600, End: 7200, Attendees: 35}
	p, err := NewMeetingPolicy(m, DefaultMeetingConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Before T_a - Δ_a: nothing.
	if got := p.NeighborSlots(6800, 35, 0); got != 0 {
		t.Fatalf("neighbor slots too early = %d", got)
	}
	// In the window with all 35 present.
	if got := p.NeighborSlots(7000, 35, 0); got != 35 {
		t.Fatalf("neighbor slots = %d", got)
	}
	// 20 left already.
	if got := p.NeighborSlots(7300, 35, 20); got != 15 {
		t.Fatalf("neighbor slots after departures = %d", got)
	}
	// After the end-release timer.
	if got := p.NeighborSlots(7200+900, 35, 20); got != 0 {
		t.Fatalf("neighbor slots after release = %d", got)
	}
	if !p.Active(7200) || p.Active(7200+901) {
		t.Fatal("Active window wrong")
	}
}

func TestMeetingValidation(t *testing.T) {
	if _, err := NewMeetingPolicy(Meeting{Start: 10, End: 5, Attendees: 3}, DefaultMeetingConfig()); err == nil {
		t.Error("inverted meeting accepted")
	}
	if _, err := NewMeetingPolicy(Meeting{Start: 0, End: 5, Attendees: 0}, DefaultMeetingConfig()); err == nil {
		t.Error("zero attendees accepted")
	}
	if _, err := NewMeetingPolicy(Meeting{Start: 0, End: 5, Attendees: 3}, MeetingConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func lounges(t *testing.T) (*topology.Universe, *profile.CellProfile) {
	t.Helper()
	u := topology.NewUniverse()
	u.MustAddCell(topology.Cell{ID: "cafe", Class: topology.ClassCafeteria})
	u.MustAddCell(topology.Cell{ID: "n1", Class: topology.ClassCorridor})
	u.MustAddCell(topology.Cell{ID: "n2", Class: topology.ClassLoungeDefault})
	u.MustConnect("cafe", "n1")
	u.MustConnect("cafe", "n2")
	cp := profile.NewCellProfile("cafe", 1000, 60)
	return u, cp
}

func TestCafeteriaPlan(t *testing.T) {
	u, cp := lounges(t)
	// Departure history: slots 0,1,2 with 2,4,6 departures, 3:1 toward n1.
	times := []float64{10, 20, 70, 80, 90, 100, 130, 140, 150, 160, 170, 175}
	for i, tm := range times {
		to := topology.CellID("n1")
		if i%4 == 3 {
			to = "n2"
		}
		cp.RecordDeparture(profile.Handoff{Portable: "p", Prev: "n1", From: "cafe", To: to, Time: tm})
	}
	// Arrivals ramp too.
	for _, tm := range []float64{10, 70, 75, 130, 135, 140} {
		cp.RecordArrival(profile.Handoff{Portable: "p", To: "cafe", Time: tm})
	}
	plan := CafeteriaPlan(u, cp, 170, 1000)
	// Forecast = (4*6 + 4 - 2*2)/3 = 8 handoffs; split 3:1.
	total := plan.Neighbor["n1"] + plan.Neighbor["n2"]
	if math.Abs(total-8000) > 1e-6 {
		t.Fatalf("neighbor total = %v, want 8000", total)
	}
	if plan.Neighbor["n1"] <= plan.Neighbor["n2"] {
		t.Fatalf("split ignores profile: %v", plan.Neighbor)
	}
	// Default neighbor present: self-reservation for predicted arrivals
	// = (4*3 + 2 - 2*1)/3 = 4 arrivals.
	if math.Abs(plan.Self-4000) > 1e-6 {
		t.Fatalf("self reservation = %v, want 4000", plan.Self)
	}
}

func TestCafeteriaPlanNoDefaultNeighbor(t *testing.T) {
	u := topology.NewUniverse()
	u.MustAddCell(topology.Cell{ID: "cafe", Class: topology.ClassCafeteria})
	u.MustAddCell(topology.Cell{ID: "n1", Class: topology.ClassCorridor})
	u.MustConnect("cafe", "n1")
	cp := profile.NewCellProfile("cafe", 100, 60)
	cp.RecordDeparture(profile.Handoff{From: "cafe", To: "n1", Time: 10})
	plan := CafeteriaPlan(u, cp, 10, 500)
	if plan.Self != 0 {
		t.Fatalf("self reservation without default neighbor = %v", plan.Self)
	}
}

func TestDefaultPlan(t *testing.T) {
	u, cp := lounges(t)
	// Make "cafe" act as the current cell regardless of class; the
	// default policy only reads the profile. 3 departures this slot.
	for _, tm := range []float64{130, 140, 150} {
		cp.RecordDeparture(profile.Handoff{From: "cafe", To: "n1", Time: tm})
	}
	plan, hasDefault := DefaultPlan(u, cp, 150, 1000)
	if !hasDefault {
		t.Fatal("default neighbor not detected")
	}
	if math.Abs(plan.Neighbor["n1"]-3000) > 1e-6 {
		t.Fatalf("one-step neighbor reservation = %v", plan.Neighbor)
	}
}

func TestLoungePlansUnknownCell(t *testing.T) {
	u, _ := lounges(t)
	cp := profile.NewCellProfile("ghost", 10, 60)
	if plan := CafeteriaPlan(u, cp, 0, 1); len(plan.Neighbor) != 0 || plan.Self != 0 {
		t.Fatal("plan for unknown cell not empty")
	}
	if plan, _ := DefaultPlan(u, cp, 0, 1); len(plan.Neighbor) != 0 {
		t.Fatal("default plan for unknown cell not empty")
	}
}

// Property: binomial pmf sums to 1 and every term is a probability.
func TestQuickBinomialPMFNormalized(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw % 120)
		p := float64(pRaw) / 65536
		pmf := binomialPMF(n, p)
		sum := 0.0
		for _, v := range pmf {
			if v < 0 || v > 1+1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the plan never admits beyond what capacity alone allows and
// respects the target when feasible.
func TestQuickPlanRespectsTarget(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		classes := []ClassState{
			{Bandwidth: 1 + rng.Intn(3), Mu: 1 + rng.Float64()*5, Handoff: rng.Float64()},
			{Bandwidth: 1 + rng.Intn(5), Mu: 1 + rng.Float64()*5, Handoff: rng.Float64()},
		}
		capacity := 20 + rng.Intn(40)
		n := []int{rng.Intn(5), rng.Intn(3)}
		s := []int{rng.Intn(10), rng.Intn(5)}
		pq := 0.01 + rng.Float64()*0.2
		T := 0.01 + rng.Float64()*0.5
		plan, err := ProbabilisticPlan(classes, n, s, capacity, T, pq)
		if errors.Is(err, ErrInfeasible) {
			return true
		}
		if err != nil {
			return false
		}
		if plan.NonBlocking < 1-pq-1e-9 {
			return false
		}
		used := 0
		for i, c := range classes {
			if plan.MaxConns[i] < n[i] {
				return false
			}
			used += c.Bandwidth * plan.MaxConns[i]
		}
		return plan.Reserved == max(0, capacity-used)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Property: for any meeting and any counter values, RoomSlots and
// NeighborSlots are non-negative, bounded by N_m, and zero outside their
// windows.
func TestQuickMeetingPolicyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		m := Meeting{
			Start:     1000 + rng.Float64()*5000,
			Attendees: 1 + rng.Intn(100),
		}
		m.End = m.Start + 600 + rng.Float64()*5000
		p, err := NewMeetingPolicy(m, DefaultMeetingConfig())
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			tm := rng.Float64() * (m.End + 2000)
			arrived := rng.Intn(150)
			left := rng.Intn(arrived + 1)
			rs := p.RoomSlots(tm, arrived)
			ns := p.NeighborSlots(tm, arrived, left)
			if rs < 0 || rs > m.Attendees || ns < 0 || ns > m.Attendees {
				return false
			}
			if tm < m.Start-p.Config.LeadIn && rs != 0 {
				return false
			}
			if tm >= m.End+p.Config.EndRelease && ns != 0 {
				return false
			}
			if tm >= m.Start+p.Config.StartRelease && rs != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLoungePlanTotalOrderIndependent: the aggregate reservation is a
// float sum over a map, so it must be summed in a fixed order — the
// policy-reservation event carries it and traces are byte-pinned.
func TestLoungePlanTotalOrderIndependent(t *testing.T) {
	a, b, c, d := 0.1, 0.2, 0.3, 1e-17
	p := LoungePlan{Neighbor: map[topology.CellID]float64{"a": a, "b": b, "c": c, "d": d}}
	want := a + b + c + d
	for i := 0; i < 100; i++ {
		if got := p.Total(); got != want {
			t.Fatalf("Total() = %v, want the cell-ID-order sum %v", got, want)
		}
	}
}
