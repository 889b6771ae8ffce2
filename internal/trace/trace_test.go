package trace

import (
	"fmt"
	"testing"

	"numacs/internal/metrics"
)

// TestStatementLifecycle walks one statement through the admission, cohort,
// and phase hooks and checks the derived wait/exec decomposition.
func TestStatementLifecycle(t *testing.T) {
	tr := New(Config{}, 4)
	s := tr.StartStatement("tenantA", "OLAP", "t.c0", 1.0)
	if s.ID != 0 || s.Submitted != 1.0 || s.Admitted != 1.0 || s.Done != -1 {
		t.Fatalf("fresh statement: %+v", s)
	}
	s.MarkAdmitted(1.5)
	if got := s.QueueWait(); got != 0.5 {
		t.Fatalf("QueueWait = %v, want 0.5", got)
	}

	s.PhaseOpen("scan", 1.5)
	s.TaskStart(0, false, 1.7) // first task: 0.2 of scheduler wait
	s.TaskStart(2, true, 1.8)
	s.PhaseClose(2.0)
	s.PhaseOpen("materialize", 2.0)
	s.TaskStart(1, false, 2.1)
	s.PhaseClose(2.4)
	s.MarkDone(2.4)

	if got := s.SchedulerWait(); got < 0.3-1e-12 || got > 0.3+1e-12 {
		t.Fatalf("SchedulerWait = %v, want 0.3 (0.2 scan + 0.1 materialize)", got)
	}
	if got := s.ExecSeconds(); got < 0.6-1e-12 || got > 0.6+1e-12 {
		t.Fatalf("ExecSeconds = %v, want 0.6 (0.3 scan + 0.3 materialize)", got)
	}
	if got := s.Tasks(); got != 3 {
		t.Fatalf("Tasks = %d, want 3", got)
	}
	if s.Stolen != 1 || s.SocketTasks[0] != 1 || s.SocketTasks[1] != 1 || s.SocketTasks[2] != 1 {
		t.Fatalf("socket attribution wrong: stolen %d, per-socket %v", s.Stolen, s.SocketTasks)
	}
	if len(s.Phases) != 2 || s.Phases[0].Tasks != 2 || s.Phases[1].Tasks != 1 {
		t.Fatalf("phases: %+v", s.Phases)
	}

	// A second statement gets the next ID and both appear in order.
	s2 := tr.StartStatement("", "", "pipeline", 3.0)
	if s2.ID != 1 || len(tr.Statements()) != 2 {
		t.Fatalf("statement ordering broken: id %d, n %d", s2.ID, len(tr.Statements()))
	}
}

// TestStatementShedAndCohort covers the drop and join-window paths.
func TestStatementShedAndCohort(t *testing.T) {
	tr := New(Config{}, 2)
	s := tr.StartStatement("x", "OLAP", "t.c1", 0.0)
	s.MarkCohortQueued(0.1)
	s.MarkCohortLaunched(0.35)
	if got := s.JoinWait; got < 0.25-1e-12 || got > 0.25+1e-12 {
		t.Fatalf("JoinWait = %v, want 0.25", got)
	}
	s.MarkAttached()
	if !s.Attached {
		t.Fatal("MarkAttached did not stick")
	}

	d := tr.StartStatement("x", "OLAP", "t.c1", 0.0)
	d.MarkShed(0.2, "join-window")
	if !d.Shed || d.ShedAt != 0.2 || d.ShedBy != "join-window" || d.Done != -1 {
		t.Fatalf("shed statement: %+v", d)
	}

	// TaskStart on an out-of-range socket must not panic or misattribute.
	s.TaskStart(-1, false, 0.4)
	s.TaskStart(99, false, 0.4)
	if s.SocketTasks[0] != 0 && s.SocketTasks[1] != 0 {
		t.Fatalf("out-of-range sockets attributed: %v", s.SocketTasks)
	}
}

// TestDecisionLogRing pins the ring-buffer semantics: capacity bounds the
// buffer, overflow drops oldest-first, and Events always returns
// chronological order.
func TestDecisionLogRing(t *testing.T) {
	l := NewDecisionLog(4)
	for i := 0; i < 3; i++ {
		l.Record(Decision{Time: float64(i), Kind: fmt.Sprintf("d%d", i)})
	}
	ev := l.Events()
	if len(ev) != 3 || ev[0].Kind != "d0" || ev[2].Kind != "d2" {
		t.Fatalf("pre-wrap events: %+v", ev)
	}
	if l.Total() != 3 || l.Dropped() != 0 {
		t.Fatalf("pre-wrap totals: total %d dropped %d", l.Total(), l.Dropped())
	}

	for i := 3; i < 10; i++ {
		l.Record(Decision{Time: float64(i), Kind: fmt.Sprintf("d%d", i)})
	}
	ev = l.Events()
	if len(ev) != 4 {
		t.Fatalf("ring grew past capacity: %d", len(ev))
	}
	for i, d := range ev {
		if want := fmt.Sprintf("d%d", 6+i); d.Kind != want {
			t.Fatalf("event %d = %q, want %q (oldest-first after wrap)", i, d.Kind, want)
		}
	}
	if l.Total() != 10 || l.Dropped() != 6 {
		t.Fatalf("post-wrap totals: total %d dropped %d, want 10/6", l.Total(), l.Dropped())
	}
}

// TestDecisionLogDefaultCap: non-positive capacities fall back to the default
// rather than building an unusable ring.
func TestDecisionLogDefaultCap(t *testing.T) {
	l := NewDecisionLog(0)
	for i := 0; i < 100; i++ {
		l.Record(Decision{})
	}
	if len(l.Events()) != 100 || l.Dropped() != 0 {
		t.Fatalf("default-cap ring dropped early: %d events, %d dropped", len(l.Events()), l.Dropped())
	}
}

// TestSamplerWindows drives the sampler like the simulator would (a tick per
// step, samples on interval boundaries) and checks the deltas, the final
// Flush, and the optional queue-depth / tenant sources.
func TestSamplerWindows(t *testing.T) {
	c := metrics.New(2)
	s := NewSampler(0.01, c)
	depth := []int{3, 1}
	s.QueueDepths = func() []int { return append([]int(nil), depth...) }
	tenants := []TenantCount{{Name: "a", Completed: 0}, {Name: "b", Completed: 0}}
	s.TenantCounts = func() []TenantCount { return append([]TenantCount(nil), tenants...) }

	// Window 1: 100 bytes on socket 0, one completion for tenant a.
	c.AddMemoryTraffic(0, 0, 100, 0, 0)
	c.AddLatency(0.001)
	tenants[0].Completed = 1
	s.Tick(0.01)
	// Window 2: 50 bytes on socket 1, two completions for tenant b.
	c.AddMemoryTraffic(1, 1, 50, 0, 0)
	c.AddLatency(0.001)
	c.AddLatency(0.001)
	tenants[1].Completed = 2
	s.Tick(0.015) // mid-window tick: must not sample
	s.Tick(0.02)
	// Partial window 3: closed by Flush, not a tick.
	c.AddMemoryTraffic(0, 0, 10, 0, 0)
	s.Flush(0.025)
	s.Flush(0.025) // second flush at the same instant: no-op

	smp := s.Samples()
	if len(smp) != 3 {
		t.Fatalf("got %d samples, want 3: %+v", len(smp), smp)
	}
	if smp[0].Delta.MCBytes[0] != 100 || smp[0].Delta.QueriesDone != 1 {
		t.Fatalf("window 1 delta: %+v", smp[0].Delta)
	}
	if smp[1].Delta.MCBytes[0] != 0 || smp[1].Delta.MCBytes[1] != 50 || smp[1].Delta.QueriesDone != 2 {
		t.Fatalf("window 2 delta: %+v", smp[1].Delta)
	}
	if smp[2].Delta.MCBytes[0] != 10 || smp[2].Window < 0.005-1e-12 || smp[2].Window > 0.005+1e-12 {
		t.Fatalf("flushed window: %+v", smp[2])
	}
	if smp[0].QueueDepths[0] != 3 || smp[0].QueueDepths[1] != 1 {
		t.Fatalf("queue depths: %v", smp[0].QueueDepths)
	}
	if smp[0].Tenants[0].Completed != 1 || smp[0].Tenants[1].Completed != 0 {
		t.Fatalf("window 1 tenants: %+v", smp[0].Tenants)
	}
	if smp[1].Tenants[0].Completed != 0 || smp[1].Tenants[1].Completed != 2 {
		t.Fatalf("window 2 tenant deltas not differenced: %+v", smp[1].Tenants)
	}

	// GiB/s accessors scale by the window.
	if got := smp[0].TotalMCGiBs(); got != 100/0.01/(1<<30) {
		t.Fatalf("TotalMCGiBs = %v", got)
	}
	if got := smp[1].MCGiBs(); got[1] != 50/0.01/(1<<30) {
		t.Fatalf("MCGiBs = %v", got)
	}
}

// TestSamplerStaysOnGrid: with an interval that is not a whole number of
// simulator steps, each sample closes at the first tick at or past the next
// multiple of the interval — the instants a caller reading the counters
// after sim.Run(k*interval) sees — instead of drifting by a step per window.
func TestSamplerStaysOnGrid(t *testing.T) {
	s := NewSampler(0.01, metrics.New(1))
	const step = 0.003
	for n := 0; n <= 14; n++ {
		s.Tick(float64(n) * step)
	}
	want := []float64{0.012, 0.021, 0.030, 0.042}
	smp := s.Samples()
	if len(smp) != len(want) {
		t.Fatalf("got %d samples, want %d: %+v", len(smp), len(want), smp)
	}
	for i, w := range want {
		if d := smp[i].Time - w; d < -1e-12 || d > 1e-12 {
			t.Errorf("sample %d closed at %.4f, want %.4f", i, smp[i].Time, w)
		}
	}
}

// TestTracerData: Data snapshots statements, decisions, and samples together.
func TestTracerData(t *testing.T) {
	tr := New(Config{DecisionCap: 8}, 2)
	tr.StartStatement("a", "OLAP", "t.c0", 0)
	tr.Decisions.Record(Decision{Source: "placer", Kind: "replicate"})
	d := tr.Data()
	if len(d.Statements) != 1 || len(d.Decisions) != 1 || len(d.Samples) != 0 {
		t.Fatalf("data: %d statements, %d decisions, %d samples", len(d.Statements), len(d.Decisions), len(d.Samples))
	}

	tr.Sampler = NewSampler(0.01, metrics.New(2))
	tr.Sampler.Tick(0.01)
	if d = tr.Data(); len(d.Samples) != 1 {
		t.Fatalf("sampler data not attached: %d samples", len(d.Samples))
	}
}
