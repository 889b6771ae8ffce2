package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

// tiny returns a copy of a workload with a short warm-up and window.
func tiny(def workloadDef) *workloadDef {
	def.Warmup = 0.004
	def.SimPerSecond = 0.004
	return &def
}

func TestTracedRunReproducesUntracedFingerprint(t *testing.T) {
	for _, def := range workloads {
		u, err := measure(tiny(def), 3, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := measure(tiny(def), 3, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if u.Fingerprint != tr.Fingerprint {
			t.Errorf("%s: traced fingerprint %s, untraced %s", def.Name, tr.Fingerprint, u.Fingerprint)
		}
		for _, c := range u.checks() {
			if c.err != nil {
				t.Errorf("%s: check %s: %v", def.Name, c.name, c.err)
			}
		}
		if u.Completed == 0 || len(u.Metrics) != len(endToEnd) || len(tr.Metrics) != len(perLayer) {
			t.Errorf("%s: %d statements, %d end-to-end and %d per-layer metrics",
				def.Name, u.Completed, len(u.Metrics), len(tr.Metrics))
		}
	}
}

func TestChecksFailOnDoctoredResult(t *testing.T) {
	good, err := measure(tiny(workloads[0]), 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	doctor := map[string]func(r *result){
		"accounting":     func(r *result) { r.Completed++ },
		"latency_floor":  func(r *result) { r.MinLatency = r.LatencyFloor / 2 },
		"mc_capacity":    func(r *result) { r.MCBytes[2] = 1.01 * r.MCCapacity[2] * r.SimSeconds },
		"queries_done":   func(r *result) { r.EngineDone++ },
		"finite_metrics": func(r *result) { r.Metrics["qpm"] = math.NaN() },
		"traced_fingerprint": func(r *result) {
			r.Traced, r.UntracedFingerprint = true, "0"
		},
	}
	for name, change := range doctor {
		r := *good
		r.MCBytes = append([]float64(nil), good.MCBytes...)
		r.Metrics = map[string]float64{}
		for k, v := range good.Metrics {
			r.Metrics[k] = v
		}
		change(&r)
		failed := false
		for _, c := range r.checks() {
			if c.name == name {
				failed = c.err != nil
			}
		}
		if !failed {
			t.Errorf("check %s passed a doctored result", name)
		}
	}
	for _, c := range good.checks() {
		if c.err != nil {
			t.Errorf("check %s failed an honest result: %v", c.name, c.err)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n       int
		wantP   float64
		wantVal float64
	}{
		{100_000, 99.9, 99_900},
		{1000, 99, 990}, // p99.9 has 1 sample beyond it; p99 has 10
		{200, 95, 190},
		{5, 0, 1},
	} {
		p, v := tail(seq(tc.n), 99.9)
		if math.Abs(p-tc.wantP) > 1e-9 || v != tc.wantVal {
			t.Errorf("n=%d: tail = (p%v, %v), want (p%v, %v)", tc.n, p, v, tc.wantP, tc.wantVal)
		}
	}
}

func TestLatencyInterpolatesInsideStep(t *testing.T) {
	lat := []float64{step, step, step, step, 2 * step, 2 * step, 2 * step, 2 * step}
	for _, tc := range []struct{ p, want float64 }{
		{25, 0.5 * step}, {50, step}, {75, 1.5 * step}, {100, 2 * step},
	} {
		if got := latency(lat, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("p%v = %g, want %g", tc.p, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestAttributeInnermostInternalFrame(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "numacs/internal/psm.(*PSM).SocketBytes", "numacs/internal/exec.(*ScanOp).Open", "numacs/internal/sim.(*Engine).Step", "main.main"}, "psm"},
		{[]string{"numacs/internal/core.(*Engine).submitQuery.func1", "numacs/internal/exec.(*Pipeline).finish"}, "core"},
		{[]string{"numacs/internal/sharedscan/sub.F"}, "sharedscan"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.memmove", "main.(*bed).submit", "main.main"}, "other"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

func TestCPUSharesDecodeARealProfile(t *testing.T) {
	b := newBed(&workloads[0], 1, false)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		b.e.Sim.Step()
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares([][]byte{prof.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	total, internal := 0.0, 0.0
	for k, v := range shares {
		total += v
		if k != "cpu.gc" && k != "cpu.other" {
			internal += v
		}
	}
	if len(shares) > 0 && (math.Abs(total-1) > 1e-9 || internal == 0) {
		t.Errorf("shares %v: total %v, numacs layers %v", shares, total, internal)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	qpm := metric{"qpm", "q/min", "higher", 0.05}
	flat := []float64{100, 100, 100, 100, 100}
	for _, tc := range []struct {
		base, head []float64
		want       string
	}{
		{flat, flat, "same"},
		{flat, []float64{101, 101, 101, 101, 101}, "improved"},
		{flat, []float64{90, 90, 90, 90, 90}, "worse"},
		{[]float64{80, 100, 120, 90, 110}, []float64{99, 101, 100, 100, 100}, "unresolved"},
	} {
		if got := judge(qpm, tc.base, tc.head).Verdict; got != tc.want {
			t.Errorf("judge(%v, %v) = %s, want %s", tc.base, tc.head, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the benchmark's
// description for the tools that run it, identical to the workloads and
// metrics defined here.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
}
