package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArmsimFaultPlanErrors pins that a fault plan armsim cannot execute
// fails the run instead of reporting a clean one: a live-only rule is
// rejected before the run, and a fault naming an unknown cell or link
// fails it once the fault fires.
func TestArmsimFaultPlanErrors(t *testing.T) {
	for _, tc := range []struct{ plan, want string }{
		{"at 5 cell-out off-99 for 5", "off-99"},
		{"at 5 link-down nosuch for 5", "nosuch"},
		{"at 5 partition east for 2", "at 5 partition east for 2"},
	} {
		path := filepath.Join(t.TempDir(), "chaos.plan")
		if err := os.WriteFile(path, []byte(tc.plan), 0o644); err != nil {
			t.Fatal(err)
		}
		sc := scenario{
			topo: "campus", portables: 4, duration: 20, dwell: 180,
			modeName: "predictive", bmin: 32e3, bmax: 128e3, faultPath: path,
		}
		err := run(sc, 1, 2, 1, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("plan %q: err = %v, want one naming %q", tc.plan, err, tc.want)
		}
	}
}
