package faults_test

import (
	"strings"
	"testing"

	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/faults"
	"armnet/internal/testnet"
	"armnet/internal/topology"
)

// TestPlaneRejectsUndrivableRules pins the plane checks: every rule the
// parser accepts but a plane cannot drive fails that plane's run at
// start, with an error naming the rule — the simulator at
// core.NewManager, the live wire at testnet.Run.
func TestPlaneRejectsUndrivableRules(t *testing.T) {
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	start := map[faults.Plane]func(*faults.Plan) error{
		faults.Sim: func(p *faults.Plan) error {
			_, err := core.NewManager(des.New(), env, core.Config{Faults: p})
			return err
		},
		faults.Live: func(p *faults.Plan) error {
			_, err := testnet.Run(testnet.Config{Mode: testnet.ModeLoopback, Faults: p})
			return err
		},
	}
	for _, tc := range []struct {
		plane faults.Plane
		rule  string
	}{
		{faults.Sim, "reorder any 0.1 0.004"},
		{faults.Sim, "drop signal 0.1 on core->sw-east"},
		{faults.Sim, "at 1 partition east for 2"},
		{faults.Sim, "at 1 crash west"},
		{faults.Live, "at 1 link-down core->sw-east for 2"},
		{faults.Live, "at 1 link-up core->sw-east"},
		{faults.Live, "at 1 cell-out off-1 for 2"},
		{faults.Live, "at 1 cell-restore off-1"},
		{faults.Live, "at 1 crash-zone west"},
		{faults.Live, "at 1 blackout off-1 for 2"},
		{faults.Live, "at 1 crash-signaling"},
	} {
		plan, err := faults.ParsePlan(strings.NewReader("drop any 0.1\n" + tc.rule))
		if err != nil {
			t.Fatalf("%q: %v", tc.rule, err)
		}
		err = start[tc.plane](plan)
		if err == nil || !strings.Contains(err.Error(), tc.rule) {
			t.Errorf("%v plane ran %q: err = %v, want one naming the rule", tc.plane, tc.rule, err)
		}
	}
}
