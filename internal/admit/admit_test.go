package admit

import (
	"testing"

	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/sched"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/trace"
)

// testController builds a controller over a real 4-socket scheduler.
func testController(cfg Config) (*Controller, *sched.Scheduler, *sim.Engine) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(50e-6)
	h := hw.New(e, m)
	s := sched.New(h, metrics.New(m.Sockets))
	e.AddActor(s)
	c := New(cfg, s, e)
	e.AddActor(c)
	return c, s, e
}

// holdStatement is a statement whose completion the test controls.
type holdStatement struct {
	st       *Statement
	done     func()
	ranGran  int
	ranAt    float64
	started  bool
	shedding bool
}

func newHold(tenant string, class Class) *holdStatement {
	h := &holdStatement{}
	h.st = &Statement{
		Tenant: tenant,
		Class:  class,
		Run: func(gran int, issuedAt float64) {
			h.started = true
			h.ranGran = gran
			h.ranAt = issuedAt
			h.done = h.st.Done
		},
		OnShed: func() { h.shedding = true },
	}
	return h
}

func TestBypassDispatchesSynchronously(t *testing.T) {
	c, _, e := testController(Config{})
	h := newHold("t1", OLAP)
	c.Submit(h.st)
	if !h.started {
		t.Fatal("uncontended statement not dispatched synchronously")
	}
	if h.ranGran != 0 {
		t.Fatalf("uncontended gran cap = %d, want 0 (uncapped)", h.ranGran)
	}
	if h.ranAt != e.Now() {
		t.Fatalf("issuedAt = %v, want now %v", h.ranAt, e.Now())
	}
	if c.InFlight() != 1 || c.Queued() != 0 {
		t.Fatalf("inflight=%d queued=%d", c.InFlight(), c.Queued())
	}
	h.done()
	if c.InFlight() != 0 {
		t.Fatalf("inflight=%d after done", c.InFlight())
	}
	st := c.Stats("t1")
	if st.Submitted != 1 || st.Admitted != 1 || st.Completed != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Latency.N() != 1 || st.Wait.N() != 1 || st.Wait.Max() != 0 {
		t.Fatalf("latency/wait histograms = %d/%d samples, wait max %v",
			st.Latency.N(), st.Wait.N(), st.Wait.Max())
	}
}

// TestWeightedFairAdmission: with one slot and two permanently backlogged
// tenants, admissions interleave proportionally to the weights.
func TestWeightedFairAdmission(t *testing.T) {
	c, _, _ := testController(Config{
		Tenants:       []TenantSpec{{Name: "heavy", Weight: 3}, {Name: "light", Weight: 1}},
		MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1,
	})
	var order []string
	var current *holdStatement
	submit := func(tenant string) *holdStatement {
		h := newHold(tenant, OLAP)
		run := h.st.Run
		h.st.Run = func(gran int, at float64) {
			order = append(order, tenant)
			run(gran, at)
			current = h
		}
		c.Submit(h.st)
		return h
	}
	// Backlog both tenants deeply, then serve 40 admissions.
	first := submit("heavy") // occupies the slot
	for i := 0; i < 60; i++ {
		submit("heavy")
		submit("light")
	}
	current = first
	for i := 0; i < 40; i++ {
		current.done()
	}
	heavy, light := 0, 0
	for _, name := range order[1:41] { // skip the pre-backlog first admission
		if name == "heavy" {
			heavy++
		} else {
			light++
		}
	}
	if heavy < 27 || heavy > 33 || light < 7 || light > 13 {
		t.Fatalf("40 admissions split heavy=%d light=%d, want ~30/10", heavy, light)
	}
}

// TestDoneOnlyAfterDispatch: Done frees a concurrency slot only for a
// statement a controller dispatched, and only once: the Done of a queued
// statement, or a second Done, does nothing.
func TestDoneOnlyAfterDispatch(t *testing.T) {
	c, _, _ := testController(Config{MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1})
	first, queued := newHold("t", OLAP), newHold("t", OLAP)
	c.Submit(first.st)
	c.Submit(queued.st)
	queued.st.Done()
	if queued.started || c.InFlight() != 1 {
		t.Fatalf("a queued statement's Done freed its slot: started=%v inflight=%d", queued.started, c.InFlight())
	}
	first.done()
	first.st.Done()
	if !queued.started || c.InFlight() != 1 || c.Stats("t").Completed != 1 {
		t.Fatalf("after one completion and a second Done: started=%v inflight=%d completed=%d",
			queued.started, c.InFlight(), c.Stats("t").Completed)
	}
	queued.done()
	if c.InFlight() != 0 || c.Stats("t").Completed != 2 {
		t.Fatalf("inflight=%d completed=%d after both completed", c.InFlight(), c.Stats("t").Completed)
	}
}

// TestNoStarvationUnderGreedyTenant: a meek tenant's statement is admitted
// within a bounded number of slot grants even when a greedy tenant has a
// huge standing backlog and keeps resubmitting.
func TestNoStarvationUnderGreedyTenant(t *testing.T) {
	c, _, _ := testController(Config{
		Tenants:       []TenantSpec{{Name: "greedy", Weight: 1}, {Name: "meek", Weight: 1}},
		MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1,
	})
	grants := 0
	var current func()
	var resubmit func()
	resubmit = func() {
		h := newHold("greedy", OLAP)
		run := h.st.Run
		h.st.Run = func(gran int, at float64) {
			grants++
			run(gran, at)
			current = h.done
			resubmit() // greedy keeps the pressure up
		}
		c.Submit(h.st)
	}
	h0 := newHold("greedy", OLAP)
	c.Submit(h0.st) // occupy the slot
	for i := 0; i < 500; i++ {
		resubmit()
	}
	meek := newHold("meek", OLAP)
	meekGrant := -1
	run := meek.st.Run
	meek.st.Run = func(gran int, at float64) {
		meekGrant = grants
		run(gran, at)
		current = meek.done
	}
	c.Submit(meek.st)
	current = h0.done
	for i := 0; i < 20 && meekGrant < 0; i++ {
		current()
	}
	if meekGrant < 0 {
		t.Fatal("meek tenant starved for 20 slot grants")
	}
	if meekGrant > 2 {
		t.Fatalf("meek tenant waited %d greedy grants, want <=2 (equal weights)", meekGrant)
	}
}

func TestDeadlineShedding(t *testing.T) {
	c, _, e := testController(Config{
		MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1,
		OLAPDeadline: 1e-3, InteractiveDeadline: 2e-4,
		Period: 1e-4, // the shed sweep runs at the control cadence
	})
	hold := newHold("t", OLAP)
	c.Submit(hold.st) // occupies the only slot
	olap := newHold("t", OLAP)
	inter := newHold("t", Interactive)
	c.Submit(olap.st)
	c.Submit(inter.st)
	// Past the interactive deadline but not the OLAP one.
	e.Run(5e-4)
	if !inter.shedding {
		t.Fatal("interactive statement not shed past its deadline")
	}
	if olap.shedding || olap.started {
		t.Fatal("OLAP statement shed or started early")
	}
	// Past the OLAP deadline too.
	e.Run(1.5e-3)
	if !olap.shedding {
		t.Fatal("OLAP statement not shed past its deadline")
	}
	st := c.Stats("t")
	if st.Shed != 2 {
		t.Fatalf("shed = %d, want 2", st.Shed)
	}
	if c.TotalShed != 2 {
		t.Fatalf("TotalShed = %d", c.TotalShed)
	}
	// The held statement is unaffected.
	hold.done()
	if c.Stats("t").Completed != 1 {
		t.Fatal("held statement did not complete")
	}
}

// TestShedCauseShowsSubMillisecondDeadline: a traced controller's shed
// decision prints the wait and the class deadline to three significant
// digits, so a 150 µs deadline reads 0.15ms rather than rounding to 0.1ms.
func TestShedCauseShowsSubMillisecondDeadline(t *testing.T) {
	c, _, e := testController(Config{
		MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1,
		OLAPDeadline: 150e-6, Period: 1e-4,
	})
	c.Decisions = trace.NewDecisionLog(0)
	c.Submit(newHold("t", OLAP).st) // occupies the only slot
	waiter := newHold("t", OLAP)
	c.Submit(waiter.st)
	e.Run(1e-3)
	if !waiter.shedding {
		t.Fatal("waiter not shed past its deadline")
	}
	var causes []string
	for _, d := range c.Decisions.Events() {
		if d.Kind == "shed" {
			causes = append(causes, d.Cause)
		}
	}
	if want := "OLAP statement waited 0.2ms > 0.15ms deadline"; len(causes) != 1 || causes[0] != want {
		t.Fatalf("shed causes = %q, want [%q]", causes, want)
	}
}

// TestElasticThrottleUnderSaturation: deep scheduler queues drive the limit
// down to the floor and coarsen the fan-out cap.
func TestElasticThrottleUnderSaturation(t *testing.T) {
	c, s, e := testController(Config{
		MinConcurrent: 2, MaxConcurrent: 64, InitialConcurrent: 64,
		Period: 1e-3, KeepTrace: true,
	})
	flood(s)
	e.Run(25e-3)
	if got := c.Limit(); got != 2 {
		t.Fatalf("limit = %d under saturation, want floor 2", got)
	}
	if got := c.GranCap(); got <= 0 || got > 120/2 {
		t.Fatalf("gran cap = %d under saturation, want coarse (1..60)", got)
	}
	if len(c.Trace) == 0 {
		t.Fatal("no control samples recorded")
	}
	last := c.Trace[len(c.Trace)-1]
	if last.QueuedTasks == 0 || last.FreeWorkers != 0 {
		t.Fatalf("trace sample = %+v, want deep queues and no free workers", last)
	}
}

// flood fills the scheduler with tasks that never complete: every worker
// goes Working and the queues stay deep.
func flood(s *sched.Scheduler) {
	for i := 0; i < 2000; i++ {
		s.Submit(&sched.Task{Affinity: i % 4, Hard: true,
			Run: sched.RunFunc(func(w *sched.Worker, done func()) {})})
	}
}

// TestControlSamplesOnlyWhenAsked: a controller whose config does not ask
// for its trace runs the same control loop, throttling to the floor, and
// keeps no samples.
func TestControlSamplesOnlyWhenAsked(t *testing.T) {
	c, s, e := testController(Config{
		MinConcurrent: 2, MaxConcurrent: 64, InitialConcurrent: 64,
		Period: 1e-3,
	})
	flood(s)
	e.Run(25e-3)
	if got := c.Limit(); got != 2 {
		t.Fatalf("limit = %d under saturation, want floor 2", got)
	}
	if c.Trace != nil {
		t.Fatalf("controller kept %d control samples nobody asked for", len(c.Trace))
	}
}

// TestElasticGrowthWhenIdle: with idle workers, shallow queues, and a
// statement backlog, the limit climbs back to the ceiling and the fan-out
// cap lifts.
func TestElasticGrowthWhenIdle(t *testing.T) {
	c, _, e := testController(Config{
		MinConcurrent: 2, MaxConcurrent: 32, InitialConcurrent: 2,
		Period: 1e-3,
	})
	// Two admitted statements that never complete (their "work" does not
	// touch the scheduler, so the machine looks idle), plus a backlog.
	for i := 0; i < 40; i++ {
		c.Submit(newHold("t", OLAP).st)
	}
	e.Run(50e-3)
	if got := c.Limit(); got != 32 {
		t.Fatalf("limit = %d after idle growth, want ceiling 32", got)
	}
	if got := c.GranCap(); got != 0 {
		t.Fatalf("gran cap = %d when idle, want 0 (uncapped)", got)
	}
	if got := c.InFlight(); got != 32 {
		t.Fatalf("inflight = %d, want 32 (backfilled as the limit grew)", got)
	}
}

// TestPriorityAgingBoostsWaitingHead: with aging enabled, a head that waited
// long overtakes a lighter-weight tenant's fresh head.
func TestPriorityAgingBoostsWaitingHead(t *testing.T) {
	c, _, e := testController(Config{
		Tenants:       []TenantSpec{{Name: "a", Weight: 4}, {Name: "b", Weight: 1}},
		MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1,
		AgingRate: 1000, // 1 virtual unit of credit per ms waited
	})
	hold := newHold("a", OLAP)
	c.Submit(hold.st) // occupy the slot
	bOld := newHold("b", OLAP)
	c.Submit(bOld.st)
	// Let b's head age, then pile on fresh heavy-weight arrivals.
	e.Run(5e-3)
	aFresh := newHold("a", OLAP)
	c.Submit(aFresh.st)
	hold.done()
	if !bOld.started {
		t.Fatal("aged head of the light tenant was not admitted first")
	}
	if aFresh.started {
		t.Fatal("fresh heavy-tenant statement jumped the aged head")
	}
}

// TestShedReentrantSubmit: an OnShed that synchronously resubmits (exactly
// what closed-loop clients do) must not corrupt the tenant queue — every
// submitted statement is accounted exactly once as admitted, shed, or still
// queued, and nothing runs twice.
func TestShedReentrantSubmit(t *testing.T) {
	c, _, e := testController(Config{
		MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1,
		OLAPDeadline: 1e-4, Period: 1e-4,
	})
	hold := newHold("t", OLAP)
	c.Submit(hold.st) // occupies the only slot for the whole test
	runs := make(map[*Statement]int)
	resubmits := 0
	var mk func() *Statement
	mk = func() *Statement {
		st := &Statement{Tenant: "t"}
		st.Run = func(gran int, at float64) { runs[st]++; st.Done() }
		st.OnShed = func() {
			resubmits++
			if resubmits < 60 {
				c.Submit(mk()) // reenters the controller mid-shed sweep
			}
		}
		return st
	}
	for i := 0; i < 10; i++ {
		c.Submit(mk())
	}
	e.Run(20e-3) // many shed sweeps; each shed spawns a fresh statement
	if resubmits < 60 {
		t.Fatalf("only %d sheds fired; the reissue chain stalled", resubmits)
	}
	st := c.Stats("t")
	if st.Admitted+st.Shed+uint64(c.Queued()) != st.Submitted {
		t.Fatalf("accounting leak: admitted %d + shed %d + queued %d != submitted %d",
			st.Admitted, st.Shed, c.Queued(), st.Submitted)
	}
	for s, n := range runs {
		if n != 1 {
			t.Fatalf("statement %p ran %d times", s, n)
		}
	}
	if c.InFlight() != 1 {
		t.Fatalf("inflight = %d, want 1 (the held statement)", c.InFlight())
	}
	hold.done()
	if c.InFlight() != 0 {
		t.Fatalf("inflight = %d after done", c.InFlight())
	}
}

func TestAutoRegisterAndNames(t *testing.T) {
	c, _, _ := testController(Config{Tenants: []TenantSpec{{Name: "cfg", Weight: 2}}})
	c.Submit(newHold("walkin", OLAP).st)
	names := c.TenantNames()
	if len(names) != 2 || names[0] != "cfg" || names[1] != "walkin" {
		t.Fatalf("tenant names = %v", names)
	}
	if got := c.Stats("walkin").Weight; got != 1 {
		t.Fatalf("auto-registered weight = %v, want 1", got)
	}
	if got := c.Stats("nobody"); got.Submitted != 0 || got.Name != "nobody" {
		t.Fatalf("unknown tenant stats = %+v", got)
	}
}
