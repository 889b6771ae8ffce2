package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"numacs/internal/admit"
	"numacs/internal/metrics"
	"numacs/internal/sharedscan"
)

// setupRepeats is how many times a run builds its workload; setup_s is the
// median, and the last build is measured.
const setupRepeats = 5

const mib = 1 << 20

// result is one measured run: its metrics and everything its output checks
// read.
type result struct {
	Workload string
	Seed     int64
	Seconds  int
	Traced   bool

	SimSeconds float64 // measured simulated window
	Metrics    map[string]float64
	TailPct    float64 // the percentile p999_ms reports

	// Statements of the window; in-flight ones were issued but not resolved.
	Attempted, Completed, Shed, InFlight, Doubles uint64
	// Write batches the writer tenant submitted and had shed.
	WriteBatches, WriteShed uint64
	EngineDone              uint64 // metrics.Counters.QueriesDone

	MinLatency, LatencyFloor float64   // simulated seconds
	MCBytes, MCCapacity      []float64 // per socket: window bytes, bytes/s

	Fingerprint         string
	UntracedFingerprint string // traced runs: the untraced run's fingerprint
}

// window holds whole-run counters read when the measured window starts, so
// the window's share can be taken from them.
type window struct {
	simStart float64
	flows    uint64
	reg      sharedscan.Stats
	merges   int
	pages    int64
	actions  int
	writer   admit.TenantStats
}

func (b *bed) startWindow() window {
	b.e.Counters.Reset()
	b.resetWindow()
	w := window{
		simStart: b.e.Sim.Now(),
		flows:    b.e.Sim.CompletedFlows(),
		merges:   b.e.MergesCompleted,
		pages:    b.e.MergePagesCopied,
	}
	if b.reg != nil {
		w.reg = b.reg.Stats()
	}
	if b.placer != nil {
		w.actions = len(b.placer.Actions)
	}
	if b.e.Admit != nil {
		w.writer = b.e.Admit.Stats("writer")
	}
	return w
}

// measure builds and warms up the workload setupRepeats times, then measures
// seconds x SimPerSecond of simulated time on the last build.
func measure(def *workloadDef, seed int64, seconds int, traced bool) (*result, error) {
	var b *bed
	setups := make([]float64, setupRepeats)
	for i := range setups {
		b = nil
		runtime.GC()
		t0 := time.Now()
		b = newBed(def, seed, traced)
		b.e.Sim.Run(def.Warmup)
		setups[i] = time.Since(t0).Seconds()
	}
	w := b.startWindow()
	end := w.simStart + def.SimPerSecond*float64(seconds)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := cpuSeconds()
	var wall, overhead float64
	var profiles [][]byte
	if traced {
		var err error
		// An untraced and a traced chunk per second of the run.
		if profiles, overhead, err = b.tr.window(b.e, end, 2*seconds); err != nil {
			return nil, err
		}
	} else {
		t0 := time.Now()
		for b.e.Sim.Now() < end {
			b.e.Sim.Step()
		}
		wall = time.Since(t0).Seconds()
	}
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := cpuSeconds()

	r := b.result(def, seed, seconds, w)
	r.Traced = traced
	perStmt := 1 / float64(max(r.Completed, 1))
	lat := sortedCopy(b.lat)
	r.TailPct, _ = tail(lat, 99.9)
	r.Fingerprint = b.fingerprint(w, lat)

	if !traced {
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		r.Metrics = map[string]float64{
			"setup_s":          sortedCopy(setups)[setupRepeats/2],
			"host_s_per_sim_s": wall / r.SimSeconds,
			"host_us_per_stmt": wall * 1e6 * perStmt,
			"allocs_per_stmt":  float64(m1.Mallocs-m0.Mallocs) * perStmt,
			"live_heap_mib":    float64(live.HeapAlloc) / mib,
			"qpm":              float64(r.Completed) / r.SimSeconds * 60,
			"p50_ms":           latency(lat, 50) * 1e3,
			"p999_ms":          latency(lat, r.TailPct) * 1e3,
		}
		runtime.KeepAlive(b)
		return r, nil
	}

	shares, err := cpuShares(profiles)
	if err != nil {
		return nil, err
	}
	m := b.layerMetrics(r, w, perStmt)
	m["bench.trace_overhead"] = overhead
	for k, v := range shares {
		m[k] = v
	}
	gcFrac := 0.0
	if cpu1 > cpu0 {
		gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	m["runtime.gc_cpu_frac"] = gcFrac
	m["runtime.gc_per_sim_s"] = float64(m1.NumGC-m0.NumGC) / r.SimSeconds
	m["runtime.alloc_mib_per_sim_s"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib / r.SimSeconds
	m["runtime.max_rss_mib"] = maxRSSMiB()
	r.Metrics = m
	return r, nil
}

// result collects the window's accounting, the inputs of the output checks,
// and the simulated counters.
func (b *bed) result(def *workloadDef, seed int64, seconds int, w window) *result {
	c := b.e.Counters
	r := &result{
		Workload: def.Name, Seed: seed, Seconds: seconds,
		SimSeconds: b.e.Sim.Now() - w.simStart,
		Attempted:  b.attempted, Completed: b.completed, Shed: b.shed,
		InFlight: b.inFlight(), Doubles: b.doubles,
		EngineDone:   c.QueriesDone,
		LatencyFloor: b.e.Costs.QueryOverheadSeconds,
		MinLatency:   math.Inf(1),
	}
	for _, l := range b.lat {
		r.MinLatency = math.Min(r.MinLatency, l)
	}
	for s := range c.MCBytes {
		r.MCBytes = append(r.MCBytes, c.MCBytes[s])
		r.MCCapacity = append(r.MCCapacity, b.e.Sim.ResourceCapacity(b.e.HW.MC[s]))
	}
	if b.e.Admit != nil {
		ws := b.e.Admit.Stats("writer")
		r.WriteBatches = ws.Submitted - w.writer.Submitted
		r.WriteShed = ws.Shed - w.writer.Shed
	}
	return r
}

// layerMetrics computes the traced run's per-layer metrics other than the
// CPU-profile shares and the Go runtime's. A layer a workload does not
// enable reports 0.
func (b *bed) layerMetrics(r *result, w window, perStmt float64) map[string]float64 {
	c, tr := b.e.Counters, b.tr
	win := r.SimSeconds
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, v := range tr.spanShares() {
		m[k] = v
	}
	steps := sortedCopy(tr.steps)
	_, m["sim.step_us_p999"] = tail(steps, 99.9)
	m["sim.step_us_p50"] = rank(steps, 50)
	m["sim.flows_per_stmt"] = float64(b.e.Sim.CompletedFlows()-w.flows) * perStmt
	m["sim.active_flows_mean"] = tr.activeFlows / float64(max(len(tr.steps), 1))

	if c.TasksExecuted > 0 {
		m["sched.stolen_frac"] = float64(c.TasksStolen) / float64(c.TasksExecuted)
	}
	m["sched.tasks_per_stmt"] = float64(c.TasksExecuted) * perStmt
	m["sched.cpu_load"] = c.CPULoad(win, b.e.Machine.TotalThreads())
	m["sched.queue_mean"] = c.MeanQueuedTasks()

	total, most := 0.0, 0.0
	for _, v := range c.MCBytes {
		total += v
		most = math.Max(most, v)
	}
	m["exec.mc_kib_per_stmt"] = total / 1024 * perStmt
	m["hw.mc_gib_s"] = total / win / (1 << 30)
	if total > 0 {
		m["hw.mc_skew"] = most / (total / float64(len(c.MCBytes)))
	}
	m["hw.qpi_gib_s"] = c.LinkTotalBytes / win / (1 << 30)
	if lines := c.LLCLocal + c.LLCRemote; lines > 0 {
		m["hw.remote_frac"] = c.LLCRemote / lines
	}
	m["hw.ipc"] = c.IPC()

	submits := sortedCopy(tr.submits)
	m["core.submit_us_p50"] = rank(submits, 50)
	_, m["core.submit_us_p999"] = tail(submits, 99.9)
	m["plan.lower_us"] = tr.replayPlanning(b.e)
	m["join.star_us_p50"] = rank(sortedCopy(tr.stars), 50)
	m["join.star_p50_ms"] = latency(sortedCopy(b.starLat), 50) * 1e3

	if b.reg != nil {
		s := b.reg.Stats()
		stmts, passes := s.Statements-w.reg.Statements, s.Passes-w.reg.Passes
		if passes > 0 {
			m["sharedscan.members_per_pass"] = float64(stmts-(s.Shed-w.reg.Shed)) / float64(passes)
			m["sharedscan.solo_frac"] = float64(s.Solo-w.reg.Solo) / float64(passes)
		}
		if stmts > 0 {
			m["sharedscan.attach_frac"] = float64(s.Attached-w.reg.Attached) / float64(stmts)
		}
	}
	if a := b.e.Admit; a != nil {
		for _, t := range b.tenants {
			if t.name == "alpha" {
				alpha := sortedCopy(t.lat)
				p, _ := tail(alpha, 99)
				m["admit.alpha_p99_ms"] = latency(alpha, p) * 1e3
			}
		}
		// The controller keeps admission waits for the whole run, warm-up
		// included.
		var waits metrics.Histogram
		for _, t := range b.tenants {
			waits.Merge(a.Stats(t.name).Wait)
		}
		m["admit.wait_p99_ms"] = waits.P99() * 1e3
		if r.Attempted > 0 {
			m["admit.shed_frac"] = float64(r.Shed) / float64(r.Attempted)
		}
		m["admit.final_limit"] = float64(a.Limit())
		if r.WriteBatches > 0 {
			m["delta.write_shed_frac"] = float64(r.WriteShed) / float64(r.WriteBatches)
		}
	}
	if b.placer != nil {
		m["adaptive.actions"] = float64(len(b.placer.Actions) - w.actions)
	}
	m["delta.merges"] = float64(b.e.MergesCompleted - w.merges)
	m["delta.merge_pages"] = float64(b.e.MergePagesCopied - w.pages)
	return m
}

// fingerprint hashes every simulated counter of the window: the engine
// counters (per-socket MC, local and remote bytes included), the simulator's
// steps and flows, the benchmark's statement accounting, each enabled
// layer's counters, and the sorted latency samples. Host timings are not in
// it, so a traced run and an untraced run of one seed must agree.
func (b *bed) fingerprint(w window, sortedLat []float64) string {
	h := sha256.New()
	c := b.e.Counters
	fmt.Fprintln(h, c.MCBytes, c.LocalBytes, c.RemoteBytes, c.LinkDataBytes, c.LinkTotalBytes,
		c.LLCLocal, c.LLCRemote, c.Instructions, c.BusyCycles)
	fmt.Fprintln(h, c.TasksExecuted, c.TasksStolen, c.QueriesDone, c.WorkerBusySeconds,
		c.SatSamples, c.SatFreeSum, c.SatParkedSum, c.SatQueueSum, c.SatTGMaxDepth, c.SatUnsaturated)
	fmt.Fprintln(h, b.e.Sim.Steps(), b.e.Sim.CompletedFlows()-w.flows, b.e.Sim.ActiveFlows())
	fmt.Fprintln(h, b.attempted, b.completed, b.shed, b.inFlight(), b.doubles)
	if b.reg != nil {
		fmt.Fprintf(h, "%+v\n", b.reg.Stats())
	}
	if a := b.e.Admit; a != nil {
		for _, name := range a.TenantNames() {
			s := a.Stats(name)
			fmt.Fprintln(h, name, s.Submitted, s.Admitted, s.Completed, s.Shed)
		}
		fmt.Fprintln(h, a.Limit(), a.GranCap())
	}
	fmt.Fprintln(h, b.e.MergesCompleted, b.e.MergePagesCopied)
	if b.placer != nil {
		fmt.Fprintln(h, len(b.placer.Actions), b.placer.PagesMoved, b.placer.PagesCopied)
	}
	if b.writers != nil {
		fmt.Fprintln(h, b.writers.Inserts, b.writers.Updates, b.writers.ShedBatches)
	}
	var buf [8]byte
	for _, s := range [][]float64{sortedLat, sortedCopy(b.starLat)} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check is one output check's outcome.
type check struct {
	name string
	err  error
}

// checks validates a run's outputs from the result alone, so tests can
// doctor a result and see each check fail.
func (r *result) checks() []check {
	out := []check{
		{"accounting", r.accounting()},
		{"latency_floor", r.latencyFloor()},
		{"mc_capacity", r.mcCapacity()},
		{"queries_done", r.queriesDone()},
		{"finite_metrics", r.finiteMetrics()},
	}
	if r.Traced {
		out = append(out, check{"traced_fingerprint", r.tracedFingerprint()})
	}
	return out
}

// accounting: every statement of the window completed, was shed, or is
// still in flight, and none was resolved twice.
func (r *result) accounting() error {
	if r.Doubles > 0 {
		return fmt.Errorf("%d statements completed or shed twice", r.Doubles)
	}
	if r.Attempted != r.Completed+r.Shed+r.InFlight {
		return fmt.Errorf("attempted %d != completed %d + shed %d + in flight %d",
			r.Attempted, r.Completed, r.Shed, r.InFlight)
	}
	return nil
}

// latencyFloor: no statement finished faster than the per-query overhead.
func (r *result) latencyFloor() error {
	if r.Completed == 0 {
		return errors.New("no statement completed")
	}
	if r.MinLatency < r.LatencyFloor {
		return fmt.Errorf("latency %gs below the per-query overhead %gs", r.MinLatency, r.LatencyFloor)
	}
	return nil
}

// mcCapacity: no memory controller served more than its capacity.
func (r *result) mcCapacity() error {
	for s := range r.MCBytes {
		if rate := r.MCBytes[s] / r.SimSeconds; rate > r.MCCapacity[s]*(1+1e-9) {
			return fmt.Errorf("socket %d served %g B/s, capacity %g B/s", s, rate, r.MCCapacity[s])
		}
	}
	return nil
}

// queriesDone: the engine and the benchmark counted the same completions.
func (r *result) queriesDone() error {
	if r.EngineDone != r.Completed {
		return fmt.Errorf("engine counted %d completions, the benchmark %d", r.EngineDone, r.Completed)
	}
	return nil
}

// finiteMetrics: every metric is a number JSON can carry.
func (r *result) finiteMetrics() error {
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}

// tracedFingerprint: tracing changed no simulated counter.
func (r *result) tracedFingerprint() error {
	if r.Fingerprint != r.UntracedFingerprint {
		return errors.New("traced fingerprint differs from the untraced run's")
	}
	return nil
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// maxRSSMiB returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
