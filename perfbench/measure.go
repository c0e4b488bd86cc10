package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"
)

// phase holds every execution of a measurement phase, indexed
// [replication][execution].
type phase struct {
	execs  [][]repResult
	passes int
	// Allocation and collection counts of the executions alone, without
	// the calibrations between them.
	mallocs, allocBytes uint64
	gcs                 uint32
}

// measure replays the replication set pass after pass until budget is
// spent, finishing the pass in flight; it always runs at least one. Each
// execution's host times are scaled to the reference host by the
// calibration that follows it. When views is given, each replication's
// first execution is compared with its oracle view, which is then
// released.
func measure(w *workload, seeds []int64, budget time.Duration, traced bool, views []harnessView) (*phase, error) {
	p := &phase{execs: make([][]repResult, len(seeds))}
	deadline := time.Now().Add(budget)
	for p.passes == 0 || time.Now().Before(deadline) {
		for i, s := range seeds {
			var ls *layerSample
			if traced {
				ls = &layerSample{}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := w.exec(s, ls)
			runtime.ReadMemStats(&after)
			p.mallocs += after.Mallocs - before.Mallocs
			p.allocBytes += after.TotalAlloc - before.TotalAlloc
			p.gcs += after.NumGC - before.NumGC
			if err != nil {
				return nil, fmt.Errorf("%s replication %d (seed %d): %w", w.name, i, s, err)
			}
			if views != nil && len(p.execs[i]) == 0 {
				r.oracle = r.view.diff(views[i])
				views[i] = harnessView{}
			}
			r.view = harnessView{}
			r.scale(calibrate())
			p.execs[i] = append(p.execs[i], r)
		}
		p.passes++
	}
	return p, nil
}

// median sums, over the replication set, the median of f across each
// replication's executions: one pass's reading.
func (p *phase) median(f func(repResult) float64) float64 {
	total := 0.0
	for _, ex := range p.execs {
		xs := make([]float64, len(ex))
		for k, r := range ex {
			xs[k] = f(r)
		}
		total += quantile(xs, 0.5)
	}
	return total
}

// samples pools a sample slice over every execution.
func (p *phase) samples(f func(repResult) []float64) []float64 {
	var out []float64
	for _, ex := range p.execs {
		for _, r := range ex {
			out = append(out, f(r)...)
		}
	}
	return out
}

// once sums f over the first execution of each replication: one pass of
// a deterministic count.
func (p *phase) once(f func(repResult) float64) float64 {
	total := 0.0
	for _, ex := range p.execs {
		total += f(ex[0])
	}
	return total
}

func (p *phase) ops() int64 {
	var n int64
	for _, ex := range p.execs {
		for _, r := range ex {
			n += r.ops
		}
	}
	return n
}

// perPass sums f over every execution, divided by the passes: one
// pass's mean reading, as every pass runs the same replications.
func (p *phase) perPass(f func(repResult) float64) float64 {
	total := 0.0
	for _, ex := range p.execs {
		for _, r := range ex {
			total += f(r)
		}
	}
	return total / float64(p.passes)
}

// runSeconds is one pass's timed time, calibrated.
func (p *phase) runSeconds() float64 {
	return p.perPass(func(r repResult) float64 { return r.run.Seconds() })
}

// hostRunSeconds is one pass's timed host time, before calibration.
func (p *phase) hostRunSeconds() float64 {
	return p.perPass(func(r repResult) float64 { return r.run.Seconds() / r.cal })
}

// portableSecsPerS is simulated portable-seconds per calibrated second.
func (p *phase) portableSecsPerS() float64 {
	return p.once(func(r repResult) float64 { return r.portableSecs }) / p.runSeconds()
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (o outcome) digest() uint64 { return fnv64([]byte(fmt.Sprintf("%+v", o))) }

// setDigest folds a replication set's digests, in replication order.
func setDigest(digests []uint64) string {
	h := fnv.New64a()
	for _, d := range digests {
		fmt.Fprintf(h, "%016x\n", d)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
