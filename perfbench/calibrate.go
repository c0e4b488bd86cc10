package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// calNominal is the calibration kernel's host time on the reference
// host, a 2-vCPU Intel Xeon VM at its typical speed. Every host-time
// reading is scaled to that speed; see calibrate.
const calNominal = 25 * time.Millisecond

// calRecord is shaped like the program's JSONL trace records.
type calRecord struct {
	T    float64           `json:"t"`
	Type string            `json:"type"`
	Conn string            `json:"conn"`
	Hops []int             `json:"hops"`
	Meta map[string]string `json:"meta"`
}

var calSink int

// calKernel is fixed work from the standard library alone, in the mix
// the program spends its time on: JSON encoding and decoding, small
// allocations, map updates and a sort. No armnet code runs in it, so a
// change to the program cannot change it.
func calKernel() {
	for round := 0; round < 4; round++ {
		bytesByConn := make(map[string]int)
		recs := make([]calRecord, 0, 900)
		for i := 0; i < 900; i++ {
			in := calRecord{
				T: float64(i) * 0.05, Type: "signal-commit", Conn: "c" + strconv.Itoa(i%97),
				Hops: []int{i, i + 1, i + 2}, Meta: map[string]string{"cell": strconv.Itoa(i % 7)},
			}
			b, err := json.Marshal(in)
			if err != nil {
				panic(err)
			}
			var out calRecord
			if err := json.Unmarshal(b, &out); err != nil {
				panic(err)
			}
			bytesByConn[out.Conn] += len(b)
			recs = append(recs, out)
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Conn < recs[j].Conn })
		calSink += len(bytesByConn) + len(recs)
	}
}

// calibrate times the kernel right after an execution and returns the
// factor that scales that execution's host times to the reference host.
//
// The host's speed for this program drifts by up to a third over
// seconds to minutes, as other tenants load the shared cores, while the
// program's share of the slowdown matches the kernel's (README.md,
// Noise). Scaling each execution by the kernel timed next to it cancels
// that drift; a change to the program still moves the scaled time by
// exactly its own speed-up or slow-down. A collection before the kernel
// gives it the same heap after every execution, and one after it gives
// the next execution the same heap too.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	calKernel()
	d := time.Since(start)
	runtime.GC()
	return float64(calNominal) / float64(d)
}
