package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
	"unsafe"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, sp := range []simSpec{campusDense, gridSparse} {
		env, err := sp.build()
		if err != nil {
			t.Fatal(err)
		}
		a, err := sp.walk(env, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := sp.walk(env, 42)
		c, _ := sp.walk(env, 43)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two mobility traces", sp.nameFormat)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same mobility trace", sp.nameFormat)
		}
	}
	a, err := liveLoopback.script(42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := liveLoopback.script(42)
	c, _ := liveLoopback.script(43)
	if !reflect.DeepEqual(a, b) {
		t.Error("live: the same seed gave two scripts")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("live: seeds 42 and 43 gave the same script")
	}
	if want := liveLoopback.conns * liveLoopback.rounds * len(liveCycle); len(a) != want {
		t.Errorf("live script has %d steps, want %d", len(a), want)
	}
}

// A fixed `go tool pprof -traces` excerpt: labelled samples of every
// attribution case, plus one unlabelled sample the fold must ignore.
const tracesSample = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ms (10%)
-----------+-------------------------------------------------------
    perfbench:  work
      40ms   sort.Strings
             armnet/internal/sortx.Keys[go.shape.string]
             armnet/internal/admission.(*LinkState).Conns (inline)
             armnet/internal/core.(*Manager).OpenConnection
             main.simSpec.exec.func2
-----------+-------------------------------------------------------
    perfbench:  work
      20ms   runtime.mallocgc
             armnet/internal/sortx.Keys[go.shape.string]
             armnet/internal/core.(*Manager).portablesInCell
             armnet/internal/des.(*Simulator).step
-----------+-------------------------------------------------------
    perfbench:  work
      10ms   armnet/internal/obs/live.(*Controller).Attach
             armnet/internal/testnet.Run
-----------+-------------------------------------------------------
    perfbench:  work
      10ms   time.Now
             main.simSpec.exec.func1
             armnet/internal/des.(*Simulator).step
-----------+-------------------------------------------------------
    perfbench:  work
      1.5s   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      70ms   armnet/internal/maxmin.WaterFill
             main.run
-----------+-------------------------------------------------------
`

func TestFoldAttributesSamplesByLayer(t *testing.T) {
	shares, err := foldTraces(tracesSample)
	if err != nil {
		t.Fatal(err)
	}
	// 1580ms labelled: admission 40, core 20, the rest other.
	const total = 1580.0
	want := map[string]float64{"admission": 40 / total, "core": 20 / total, "other": 1520 / total}
	sum := 0.0
	for _, l := range shareLayers {
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("cpu_share.%s = %g, want %g", l, shares[l], want[l])
		}
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	if _, err := foldTraces("File: x\n"); err == nil {
		t.Error("a profile without labelled samples folded without error")
	}
}

func TestCorruptDigestOrViolationRaisesErrorRate(t *testing.T) {
	const seed = 7
	r, err := liveLoopback.exec(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := liveLoopback.harness(seed)
	if err != nil {
		t.Fatal(err)
	}
	r.oracle = r.view.diff(oracle)
	clean := func() *phase { return &phase{execs: [][]repResult{{r, r}}, passes: 2} }
	pin := pins{Reps: 1, Sets: map[string]string{"7": setDigest([]uint64{r.out.digest()})}}
	errorRate := func(p *phase, pin pins) float64 {
		return ratio(int64(len(verify(seed, []*phase{p}, pin, nil))), p.ops())
	}
	if got := errorRate(clean(), pin); got != 0 {
		t.Fatalf("clean run: error_rate %g, failures %v", got, verify(seed, []*phase{clean()}, pin, nil))
	}

	bad := pins{Reps: 1, Sets: map[string]string{"7": "0000000000000000"}}
	if errorRate(clean(), bad) == 0 {
		t.Error("a corrupted pinned digest left error_rate at 0")
	}
	p := clean()
	p.execs[0][1].errs = []string{"orphaned-alloc: injected"}
	if errorRate(p, pin) == 0 {
		t.Error("an injected violation left error_rate at 0")
	}
	p = clean()
	p.execs[0][1].out.Setups++
	if errorRate(p, pin) == 0 {
		t.Error("a repeat with another outcome left error_rate at 0")
	}
	p = clean()
	p.execs[0][0].oracle = "summary differs"
	if errorRate(p, pin) == 0 {
		t.Error("disagreeing with the harness left error_rate at 0")
	}
	canary := r
	if errorRate(clean(), pins{Reps: 1, Canary: "0000000000000000"}) == 0 {
		t.Error("an unpinned seed without a canary left error_rate at 0")
	}
	if n := len(verify(seed, []*phase{clean()}, pins{Reps: 1, Canary: "0000000000000000"}, &canary)); n == 0 {
		t.Error("a corrupted canary digest passed")
	}
}

func TestTracedRunIsTransparent(t *testing.T) {
	seed := int64(3)
	plain, err := campusDense.exec(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls := &layerSample{}
	traced, err := campusDense.exec(seed, ls)
	if err != nil {
		t.Fatal(err)
	}
	if plain.out != traced.out {
		t.Errorf("traced outcome %+v, untraced %+v", traced.out, plain.out)
	}
	if ls.admCalls == 0 || ls.mmCalls == 0 || ls.records == 0 || ls.coreOps != traced.ops {
		t.Errorf("traced run missed a layer: %+v", ls)
	}
	if len(plain.errs)+len(traced.errs) > 0 {
		t.Errorf("audit: %v %v", plain.errs, traced.errs)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(s.name) || !unit.MatchString(s.unit) {
			t.Errorf("metric %q with unit %q breaks the naming rules", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("metric %s: better %q", s.name, s.better)
		}
		if seen[s.name] {
			t.Errorf("metric %s listed twice", s.name)
		}
		seen[s.name] = true
	}
	for _, l := range shareLayers {
		if !seen["cpu_share."+l] {
			t.Errorf("cpu_share.%s is not a per-layer metric", l)
		}
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name, Unit, Better string
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	specs := func(ms []metricSpec) []spec {
		out := make([]spec, len(ms))
		for i, m := range ms {
			out[i] = spec{m.name, m.unit, m.better}
		}
		return out
	}
	if !reflect.DeepEqual(bench.EndToEnd, specs(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", bench.EndToEnd, specs(endToEnd))
	}
	if !reflect.DeepEqual(bench.PerLayer, specs(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's list")
	}
	for _, bw := range bench.Workloads {
		if _, err := lookup(bw.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		p, err := loadPins(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Reps != w.reps || p.Canary == "" || len(p.Sets) == 0 {
			t.Errorf("%s: pins made with %d replications (want %d), %d sets", w.name, p.Reps, w.reps, len(p.Sets))
		}
	}
}

func TestScaleCoversEveryHostTime(t *testing.T) {
	ls := &layerSample{}
	r, err := campusDense.exec(3, ls)
	if err != nil {
		t.Fatal(err)
	}
	// Give every host-time field of the layer sample a reading, so a
	// field scale misses shows as unchanged.
	lv := reflect.ValueOf(ls).Elem()
	field := func(i int) reflect.Value { // settable, though unexported
		f := lv.Field(i)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	}
	durType := reflect.TypeOf(time.Duration(0))
	for i := 0; i < lv.NumField(); i++ {
		if f := field(i); f.Type() == durType {
			f.SetInt(int64(time.Millisecond))
		} else if f.Type() == reflect.TypeOf([]float64(nil)) {
			f.Set(reflect.ValueOf([]float64{1}))
		}
	}
	setup, run, op := r.setup, r.run, r.opUS[0]
	r.scale(2)
	if r.cal != 2 || r.setup != 2*setup || r.run != 2*run || r.opUS[0] != 2*op {
		t.Errorf("scale(2): cal %g, setup %v→%v, run %v→%v, op %g→%g", r.cal, setup, r.setup, run, r.run, op, r.opUS[0])
	}
	for i := 0; i < lv.NumField(); i++ {
		f, name := field(i), lv.Type().Field(i).Name
		if f.Type() == durType && f.Int() != int64(2*time.Millisecond) {
			t.Errorf("layerSample.%s = %v after scale(2), want 2ms", name, time.Duration(f.Int()))
		}
		if f.Type() == reflect.TypeOf([]float64(nil)) && f.Index(0).Float() != 2 {
			t.Errorf("layerSample.%s[0] = %g after scale(2), want 2", name, f.Index(0).Float())
		}
	}
}

func TestPhaseReadings(t *testing.T) {
	rep := func(run, setup float64) repResult {
		return repResult{run: time.Duration(run * float64(time.Second)), setup: time.Duration(setup * float64(time.Second))}
	}
	// Two replications over three passes.
	p := &phase{passes: 3, execs: [][]repResult{
		{rep(1, 0.1), rep(2, 0.3), rep(3, 0.2)},
		{rep(4, 1), rep(4, 2), rep(7, 9)},
	}}
	if got := p.runSeconds(); math.Abs(got-7) > 1e-9 {
		t.Errorf("runSeconds = %g, want the mean pass, 21/3 = 7", got)
	}
	if got := p.median(func(r repResult) float64 { return r.setup.Seconds() }); math.Abs(got-2.2) > 1e-9 {
		t.Errorf("median setup = %g, want 0.2 + 2", got)
	}
}
