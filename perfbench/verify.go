package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"strconv"

	"armnet/internal/runner"
)

// Pinned outcome digests, one file per workload, written by
// -print-digests (see README.md).
//
//go:embed digests/*.json
var digestFiles embed.FS

// pins are a workload's pinned outcome digests.
type pins struct {
	// Reps is the replication-set size the digests were made with.
	Reps int `json:"reps"`
	// Canary is the digest of replication seed 0, checked on every run
	// whose workload seed has no pinned set.
	Canary string `json:"canary"`
	// Sets maps a workload seed to the digest of its replication set.
	Sets map[string]string `json:"sets"`
}

func loadPins(name string) (pins, error) {
	var p pins
	b, err := digestFiles.ReadFile("digests/" + name + ".json")
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return p, fmt.Errorf("digests/%s.json: %w", name, err)
	}
	return p, nil
}

// printDigests computes the pins for workload seeds 0..n-1.
func printDigests(w *workload, n int) (pins, error) {
	p := pins{Reps: w.reps, Sets: make(map[string]string, n)}
	for s := int64(0); s < int64(n); s++ {
		seeds := runner.Seeds(s, w.reps)
		digests := make([]uint64, len(seeds))
		for i, rs := range seeds {
			r, err := w.exec(rs, nil)
			if err != nil {
				return p, err
			}
			if len(r.errs) > 0 {
				return p, fmt.Errorf("seed %d replication %d: %v", s, i, r.errs)
			}
			digests[i] = r.out.digest()
		}
		if s == 0 {
			p.Canary = fmt.Sprintf("%016x", digests[0])
		}
		p.Sets[strconv.FormatInt(s, 10)] = setDigest(digests)
	}
	return p, nil
}

// verify runs a run's correctness checks and returns one line per
// failure. The first execution of each replication in the first phase
// is the reference: every other execution, traced or not, must repeat
// its outcome; it must agree with the repository's harness (measure
// compared them) and with the pinned digests. canary is the execution of
// replication seed 0, made only when the workload seed has no pinned set.
func verify(seed int64, phases []*phase, pin pins, canary *repResult) []string {
	var fails []string
	ref := phases[0]
	digests := make([]uint64, len(ref.execs))
	for i, ex := range ref.execs {
		digests[i] = ex[0].out.digest()
	}
	for _, p := range phases {
		for i, ex := range p.execs {
			for j, r := range ex {
				for _, e := range r.errs {
					fails = append(fails, fmt.Sprintf("replication %d execution %d: %s", i, j, e))
				}
				if d := r.out.digest(); d != digests[i] {
					fails = append(fails, fmt.Sprintf("replication %d execution %d: outcome digest %016x, first execution %016x", i, j, d, digests[i]))
				}
			}
		}
	}
	for i, ex := range ref.execs {
		if d := ex[0].oracle; d != "" {
			fails = append(fails, fmt.Sprintf("replication %d disagrees with the repository harness: %s", i, d))
		}
	}
	if pin.Reps != len(digests) {
		return append(fails, fmt.Sprintf("pinned digests were made with %d replications, the run has %d", pin.Reps, len(digests)))
	}
	if want, ok := pin.Sets[strconv.FormatInt(seed, 10)]; ok {
		if got := setDigest(digests); got != want {
			fails = append(fails, fmt.Sprintf("set digest %s, pinned %s", got, want))
		}
		return fails
	}
	if canary == nil {
		return append(fails, "workload seed has no pinned set and no canary ran")
	}
	for _, e := range canary.errs {
		fails = append(fails, "canary: "+e)
	}
	if got := fmt.Sprintf("%016x", canary.out.digest()); got != pin.Canary {
		fails = append(fails, fmt.Sprintf("canary digest %s, pinned %s", got, pin.Canary))
	}
	return fails
}
