package sim

import (
	"context"
	"testing"
)

// TestTheorem1DeterministicAcrossWorkers checks the aggregated study:
// per-instance seed-splitting must make the totals independent of how
// instances are scheduled onto workers.
func TestTheorem1DeterministicAcrossWorkers(t *testing.T) {
	cfg := Theorem1Config{Seed: 5, Instances: 16, Refined: true, Perturb: true}
	serial, err := RunTheorem1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, _, err := RunTheorem1Parallel(context.Background(), cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != serial {
			t.Fatalf("workers=%d diverged from serial:\nserial:   %+v\nparallel: %+v", workers, serial, got)
		}
	}
}
