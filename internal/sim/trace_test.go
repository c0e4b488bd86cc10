package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"armnet/internal/obs"
)

// detCampusCfg keeps the determinism runs short but non-trivial: long
// enough for handoffs, reservations and pool claims to accumulate.
var detCampusCfg = Scenario{Seed: 7, Portables: 12, Duration: 900}

// tracedRun is everything one Run of a scenario list produces: the
// results (snapshots stripped), each scenario's own trace, and the
// merged snapshot of the observed scenarios in both exposition formats.
type tracedRun struct {
	results    []Result
	traces     [][]byte
	merged     []byte
	mergedRuns int
}

// runTraced runs list at the given worker count with a separate trace
// buffer armed on every scenario.
func runTraced(t *testing.T, list []Scenario, workers int) tracedRun {
	t.Helper()
	list = append([]Scenario(nil), list...)
	bufs := make([]bytes.Buffer, len(list))
	for i := range list {
		list[i].Trace = &bufs[i]
	}
	rs, st, err := Run(context.Background(), list, workers)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if len(rs) != len(list) || st.Trials != len(list) || st.Failed != 0 {
		t.Fatalf("workers=%d: %d results, stats %+v for %d scenarios", workers, len(rs), st, len(list))
	}
	out := tracedRun{results: rs}
	var snaps []*obs.Snapshot
	for i := range rs {
		if rs[i].Snapshot != nil {
			snaps = append(snaps, rs[i].Snapshot)
			rs[i].Snapshot = nil
		}
		out.traces = append(out.traces, bufs[i].Bytes())
	}
	if len(snaps) > 0 {
		merged, err := obs.MergeAll(snaps)
		if err != nil {
			t.Fatal(err)
		}
		out.merged = append(merged.Prometheus(), merged.JSON()...)
		out.mergedRuns = merged.Runs
	}
	return out
}

// TestCampusTraceDeterminismAcrossWorkers is the replication regression
// test every campus-family scenario list must pass: at 1, 2 and 8
// workers Run must return identical results, a byte-identical JSONL
// trace per scenario, and a byte-identical merged obs snapshot. Any
// divergence means an event was published from a scheduling- or
// map-order-dependent code path. (`make trace-determinism` selects it.)
func TestCampusTraceDeterminismAcrossWorkers(t *testing.T) {
	grid := Scenario{Seed: 3, Rows: 2, Cols: 3, Portables: 16, Duration: 600}
	chaos := Scenario{
		Seed: 1, Portables: 8, Duration: 180, Settle: 30,
		Chaos: &Chaos{LossRate: 0.15, Plan: "at 60 cell-out off-3 for 30\nat 100 crash-signaling"},
	}
	overload := Scenario{Seed: 1, Overload: &Overload{Policy: "default"}, Chaos: &Chaos{LossRate: 0.05}}
	observed := Scenario{Seed: 1, Portables: 10, Duration: 600, Obs: true}
	families := []struct {
		name string
		list []Scenario
		// check runs family-specific assertions on the one-worker run.
		check func(t *testing.T, rs []Result)
	}{
		{name: "campus-modes", list: detCampusCfg.Modes()},
		{name: "tth", list: detCampusCfg.Thresholds([]float64{30, 120, 600})},
		{name: "grid", list: grid.Replicate(4), check: func(t *testing.T, rs []Result) {
			// Replication 0 keeps the base seed, so it reproduces RunGrid.
			single, err := RunGrid(grid)
			if err != nil {
				t.Fatal(err)
			}
			single.Snapshot = nil
			if !reflect.DeepEqual(rs[0], single) {
				t.Fatalf("replication 0 diverged from RunGrid:\nsingle: %+v\nsweep:  %+v", single, rs[0])
			}
		}},
		{name: "chaos", list: chaos.Replicate(4)},
		{name: "overload", list: overload.Replicate(4)},
		{name: "obs", list: observed.Replicate(4)},
		{name: "arena", list: arenaGoldenCfg.Roster(nil), check: func(t *testing.T, rs []Result) {
			if len(rs) < 3 {
				t.Fatalf("arena ran %d pairs, want >= 3", len(rs))
			}
		}},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			serial := runTraced(t, f.list, 1)
			for i, trace := range serial.traces {
				if !bytes.HasPrefix(trace, []byte(`{"seq":1,`)) {
					t.Fatalf("scenario %d: trace does not start at seq 1: %.80s", i, trace)
				}
			}
			observedRuns := 0
			for _, s := range f.list {
				if s.Obs {
					observedRuns++
				}
			}
			if serial.mergedRuns != observedRuns {
				t.Fatalf("merged snapshot covers %d runs, want %d", serial.mergedRuns, observedRuns)
			}
			if f.check != nil {
				f.check(t, serial.results)
			}
			for _, workers := range []int{2, 8} {
				got := runTraced(t, f.list, workers)
				if !reflect.DeepEqual(got.results, serial.results) {
					t.Fatalf("workers=%d: results diverged from serial\ngot  %+v\nwant %+v", workers, got.results, serial.results)
				}
				for i := range got.traces {
					if !bytes.Equal(got.traces[i], serial.traces[i]) {
						t.Fatalf("workers=%d scenario %d: trace diverged from serial (%d vs %d bytes)",
							workers, i, len(got.traces[i]), len(serial.traces[i]))
					}
				}
				if !bytes.Equal(got.merged, serial.merged) {
					t.Fatalf("workers=%d: merged obs snapshot diverged from serial", workers)
				}
			}
		})
	}
}

// TestRunSharedSinksDeterministic: scenarios that share one trace
// writer and one span writer get their output written whole, in list
// order, so the shared bytes are identical at any worker count. Under
// -race this also proves concurrent trials never touch the shared
// writers.
func TestRunSharedSinksDeterministic(t *testing.T) {
	run := func(workers int) (trace, spans, snap []byte) {
		var tb, sb bytes.Buffer
		base := Scenario{Seed: 3, Portables: 8, Duration: 400, Trace: &tb, Obs: true, Spans: &sb}
		rs, _, err := Run(context.Background(), base.Modes(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			snap = append(snap, r.Snapshot.JSON()...)
		}
		return tb.Bytes(), sb.Bytes(), snap
	}
	trace, spans, snap := run(1)
	if n := bytes.Count(trace, []byte(`{"seq":1,`)); n != 3 {
		t.Fatalf("shared trace holds %d runs, want 3", n)
	}
	if len(spans) == 0 {
		t.Fatal("observed runs exported no spans")
	}
	gotTrace, gotSpans, gotSnap := run(3)
	if !bytes.Equal(gotTrace, trace) || !bytes.Equal(gotSpans, spans) || !bytes.Equal(gotSnap, snap) {
		t.Fatal("shared sinks diverged between 1 and 3 workers")
	}
}

// TestCampusTraceConsistentWithResult checks that the trace and the
// summary come from one stream: replaying the recorded events must
// reproduce the counters behind the returned CampusResult.
func TestCampusTraceConsistentWithResult(t *testing.T) {
	var buf bytes.Buffer
	cfg := detCampusCfg
	cfg.Trace = &buf
	res, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var requested, blocked, attempted int64
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		switch {
		case bytes.Contains(line, []byte(`"type":"connection-requested"`)):
			requested++
		case bytes.Contains(line, []byte(`"type":"connection-blocked"`)):
			blocked++
		case bytes.Contains(line, []byte(`"type":"handoff-attempt"`)):
			attempted++
		}
	}
	if requested == 0 || attempted == 0 {
		t.Fatalf("trace missing core events: requested=%d attempted=%d", requested, attempted)
	}
	if got := ratio(blocked, requested); got != res.BlockRate {
		t.Fatalf("BlockRate mismatch: trace %v result %v", got, res.BlockRate)
	}
	if res.Handoffs != attempted {
		t.Fatalf("Handoffs mismatch: trace %d result %d", attempted, res.Handoffs)
	}
}
