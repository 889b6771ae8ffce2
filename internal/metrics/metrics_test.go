package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestMemoryTrafficAccounting(t *testing.T) {
	c := New(4)
	c.AddMemoryTraffic(0, 0, 6400, 0, 0)       // local
	c.AddMemoryTraffic(1, 0, 1280, 1280, 1728) // remote to socket 0
	if c.MCBytes[0] != 7680 {
		t.Fatalf("MCBytes[0] = %v", c.MCBytes[0])
	}
	if c.LocalBytes[0] != 6400 || c.RemoteBytes[1] != 1280 {
		t.Fatalf("locality split wrong: %v %v", c.LocalBytes, c.RemoteBytes)
	}
	if c.LLCLocal != 100 || c.LLCRemote != 20 {
		t.Fatalf("LLC lines = %v local, %v remote", c.LLCLocal, c.LLCRemote)
	}
	if c.LinkDataBytes != 1280 || c.LinkTotalBytes != 1728 {
		t.Fatalf("link traffic = %v / %v", c.LinkDataBytes, c.LinkTotalBytes)
	}
	if c.TotalMCBytes() != 7680 {
		t.Fatalf("TotalMCBytes = %v", c.TotalMCBytes())
	}
}

func TestIPC(t *testing.T) {
	c := New(2)
	c.AddCompute(0, 100, 50)
	c.AddCompute(1, 100, 150)
	if got := c.IPC(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("IPC = %v, want 1.0", got)
	}
	if New(1).IPC() != 0 {
		t.Fatal("IPC of empty counters should be 0")
	}
}

func TestLatencyStats(t *testing.T) {
	c := New(1)
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		c.AddLatency(v)
	}
	s := c.Latencies()
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.Mean-5.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.P50-5.5) > 1e-9 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P5 >= s.P25 || s.P25 >= s.P75 || s.P75 >= s.P95 {
		t.Fatalf("percentiles not ordered: %+v", s)
	}
	if s.CoeffOfVariation <= 0 {
		t.Fatalf("cv = %v", s.CoeffOfVariation)
	}
}

func TestLatencyStatsEmpty(t *testing.T) {
	s := New(1).Latencies()
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestThroughputAndLoad(t *testing.T) {
	c := New(2)
	for i := 0; i < 100; i++ {
		c.AddLatency(0.01)
	}
	if got := c.ThroughputQPM(60); math.Abs(got-100) > 1e-9 {
		t.Fatalf("qpm = %v", got)
	}
	if got := c.ThroughputQPM(0); got != 0 {
		t.Fatalf("qpm at zero window = %v", got)
	}
	c.WorkerBusySeconds = 30
	if got := c.CPULoad(10, 6); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("load = %v", got)
	}
	c.WorkerBusySeconds = 1000
	if got := c.CPULoad(10, 6); got != 1 {
		t.Fatalf("load should clamp to 1, got %v", got)
	}
}

func TestMemoryThroughputGiBs(t *testing.T) {
	c := New(2)
	c.AddMemoryTraffic(0, 1, float64(2)*(1<<30), 0, 0)
	tp := c.MemoryThroughputGiBs(2)
	if math.Abs(tp[1]-1.0) > 1e-9 || tp[0] != 0 {
		t.Fatalf("mem TP = %v", tp)
	}
}

func TestReset(t *testing.T) {
	c := New(2)
	c.AddMemoryTraffic(0, 1, 100, 10, 20)
	c.AddCompute(0, 5, 5)
	c.AddLatency(1)
	c.TasksExecuted = 3
	c.TasksStolen = 1
	c.WorkerBusySeconds = 9
	c.Reset()
	if c.TotalMCBytes() != 0 || c.LLCRemote != 0 || c.QueriesDone != 0 ||
		c.TasksExecuted != 0 || c.TasksStolen != 0 || c.WorkerBusySeconds != 0 ||
		c.Latencies().N != 0 || c.LinkTotalBytes != 0 {
		t.Fatalf("reset incomplete: %+v", c)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := &Histogram{}
	if h.P50() != 0 || h.P99() != 0 || h.N() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// 1..100 in shuffled-ish order: percentiles must not depend on insertion
	// order.
	for i := 0; i < 100; i++ {
		h.Record(float64((i*37)%100 + 1))
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.P50(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 50.5", got)
	}
	if got := h.P99(); math.Abs(got-99.01) > 1e-9 {
		t.Fatalf("p99 = %v, want 99.01", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	// A record after a percentile query lands beyond the folded values.
	h.Record(1000)
	if got := h.Max(); got != 1000 {
		t.Fatalf("max after late record = %v", got)
	}
	h.Reset()
	if h.N() != 0 || h.P99() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestLatencyStatsP99(t *testing.T) {
	c := New(1)
	for i := 1; i <= 200; i++ {
		c.AddLatency(float64(i))
	}
	ls := c.Latencies()
	if math.Abs(ls.P99-198.01) > 1e-9 {
		t.Fatalf("p99 = %v, want 198.01", ls.P99)
	}
	if ls.P99 < ls.P95 || ls.P99 > ls.Max {
		t.Fatalf("p99 %v outside [p95 %v, max %v]", ls.P99, ls.P95, ls.Max)
	}
}

func TestSaturationCounters(t *testing.T) {
	c := New(2)
	c.AddSaturationSample(10, 2, 13, 7, true) // depths 5, 0, 7, 1
	c.AddSaturationSample(0, 0, 12, 3, false) // depths 3, 3, 3, 3
	if c.SatSamples != 2 {
		t.Fatalf("samples = %d", c.SatSamples)
	}
	if got := c.MeanFreeWorkers(); got != 5 {
		t.Fatalf("mean free = %v, want 5", got)
	}
	if got := c.SatParkedSum / float64(c.SatSamples); got != 1 {
		t.Fatalf("mean parked = %v, want 1", got)
	}
	if got := c.MeanQueuedTasks(); got != 12.5 {
		t.Fatalf("mean queued = %v, want 12.5 ((13+12)/2)", got)
	}
	if c.SatTGMaxDepth != 7 {
		t.Fatalf("max TG depth = %d, want 7", c.SatTGMaxDepth)
	}
	if c.SatUnsaturated != 1 {
		t.Fatalf("unsaturated = %d, want 1", c.SatUnsaturated)
	}
	c.Reset()
	if c.SatSamples != 0 || c.MeanFreeWorkers() != 0 || c.MeanQueuedTasks() != 0 ||
		c.SatTGMaxDepth != 0 || c.SatUnsaturated != 0 {
		t.Fatal("saturation counters survive Reset")
	}
}

// TestFingerprintIsExact: the fingerprint renders floats exactly (a one-ulp
// change shows), ignores only the order latencies were recorded in, and
// run-length encodes the latency histogram.
func TestFingerprintIsExact(t *testing.T) {
	build := func(lats ...float64) *Counters {
		c := New(2)
		c.AddMemoryTraffic(0, 1, 640, 640, 864)
		for _, l := range lats {
			c.AddLatency(l)
		}
		return c
	}
	a := Fingerprint(build(0.002, 0.001, 0.002))
	if b := Fingerprint(build(0.002, 0.002, 0.001)); a != b {
		t.Errorf("recording order changed the fingerprint:\n%s\nvs\n%s", a, b)
	}
	if b := Fingerprint(build(0.002, 0.001, math.Nextafter(0.002, 1))); a == b {
		t.Error("a one-ulp latency change kept the fingerprint")
	}
	c := build(0.002, 0.001, 0.002)
	c.MCBytes[1] = math.Nextafter(c.MCBytes[1], 0)
	if Fingerprint(c) == a {
		t.Error("a one-ulp counter change kept the fingerprint")
	}
	for _, want := range []string{"mc_bytes [0 640]\n", "latencies 3\n", "latency 0.001 x1\nlatency 0.002 x2\n"} {
		if !strings.Contains(a, want) {
			t.Errorf("fingerprint lacks %q:\n%s", want, a)
		}
	}
}
