package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/metrics"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/trace"
)

// admissionReuseFingerprint is the sha256 of the metrics.Fingerprint, the
// registry stats, the admission outcomes and latencies, and the delta rows
// that TestAdmissionRecordReuse's
// scenario produced before admission entries, write batches and cohort
// passes ran on recycled records (every admitted statement then built its
// own admission entry and closures, every write batch its map, closures and
// flows, and every pass its cohort, operators and storage). Print the
// current value with NUMACS_PRINT_FINGERPRINT=1.
const admissionReuseFingerprint = "9f79b8fa4d439d64cf8502850ead4d47231ac086aceda062e6bdef2d9c7091b8"

// testWrite is one planned write of TestAdmissionRecordReuse's writer: row
// -1 inserts.
type testWrite struct {
	col, socket, row int
	v                int64
}

// TestAdmissionRecordReuse drives the admission, write-batch and cohort-pass
// records through their edge cases and checks that a recycled record is
// indistinguishable from a fresh one. One engine runs admission (a low
// concurrency limit, tight OLAP and Interactive deadlines) in front of the
// cohort registry, beside a writer tenant:
//   - a full concurrency limit queues statements, so each completion
//     dispatches the next one from inside the controller's completion hook;
//   - admission sheds queued statements, and every OnShed resubmits the same
//     shape at once, so a shed record is taken again inside the shed loop;
//   - the writer submits a batch over several fragments every few steps,
//     and the Interactive deadline sheds some batches while they queue;
//   - plan statements queue too: stars, and join-free plans that join
//     cohorts, each on records of its plan-cache entry;
//   - the cost model changes every few steps, in a threshold no statement
//     reads, so the star's entry replans while its records queue or run,
//     and a record taken with one plan begins on another;
//   - every OnDone resubmits, and a zero-match follower, which completes
//     inside its pass's find-barrier or wrap loop, also launches a pass on
//     an idle column from its OnDone while the other followers of its pass
//     are still opening;
//   - late arrivals attach mid-flight and finish with a wrap pass;
//   - tracing is enabled after records already exist.
//
// Every statement must complete or be shed exactly once, and the run's
// fingerprint must equal the one recorded before these records.
func TestAdmissionRecordReuse(t *testing.T) {
	e := NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	big := colstore.NewTable("BIG", []*colstore.Column{
		colstore.NewSynthetic("C", 1_000_000, 1<<15, false),
		colstore.NewSynthetic("D", 1_000_000, 1<<13, false),
	})
	e.Placer.PlaceRR(big)
	side := colstore.NewTable("SIDE", []*colstore.Column{colstore.NewSynthetic("E", 200_000, 1<<12, false)})
	e.Placer.PlaceRR(side)
	dim, fact := buildStarTables(e)
	ctl := e.EnableAdmission(admit.Config{MaxConcurrent: 10, OLAPDeadline: 400e-6, InteractiveDeadline: 30e-6})
	reg := e.EnableSharedScans(sharedscan.Config{JoinWindow: 300e-6, AttachFraction: 0.1})

	const stopAt = 0.004
	var fired []int // per submitted statement, the times OnDone or OnShed fired
	track := func(q *Query, onDone, onShed func()) *Query {
		id := len(fired)
		fired = append(fired, 0)
		end := func(again func()) {
			fired[id]++
			if again != nil && e.Sim.Now() < stopAt {
				again()
			}
		}
		q.OnDone = func(float64) { end(onDone) }
		q.OnShed = func() { end(onShed) }
		return q
	}
	shape := func(i int) *Query {
		q := &Query{Table: big, Column: "C", Selectivity: []float64{0, 1e-4, 1e-3}[i%3], Parallel: true,
			Strategy: Strategy(i % 3), HomeSocket: i % 4, Tenant: fmt.Sprint("t", i%2), Class: admit.Class(i % 2)}
		if i%4 == 1 {
			q.Aggregate, q.AggBytesPerRow, q.AggCyclesPerRow = true, 8, 8
		}
		return q
	}
	idle := func(i int) *Query {
		return &Query{Table: side, Column: "E", Selectivity: 1e-3, Parallel: true, Strategy: Bound, HomeSocket: i % 4}
	}
	var client func(i int)
	client = func(i int) {
		again := func() { client(i) }
		onDone := again
		if i%3 == 0 {
			// A zero-match statement: as a follower it completes inside its
			// pass's barrier loop, and it launches a pass on the idle column
			// from there.
			onDone = func() {
				joinNow(e, track(idle(i), nil, nil))
				again()
			}
		}
		e.Submit(track(shape(i), onDone, again))
	}
	for i := 0; i < 16; i++ {
		client(i)
	}
	// Plan clients: join-free plans, which join cohorts, and stars, planned
	// when admitted. Before each submission the top two records of the
	// entry's free list swap places, so a client mostly takes a record
	// another client freed.
	var planClient func(i int)
	stale := 0 // records taken holding a plan their entry has replaced
	planClient = func(i int) {
		again := func() { planClient(i) }
		q := &Query{Strategy: Bound, HomeSocket: i % 4, Tenant: "p", Class: admit.Class(i % 2)}
		if i%2 == 0 {
			q.Plan = plan.BuildQuery(plan.Statement{Table: big, Column: "D", Selectivity: 1e-3, Parallel: true})
		} else {
			q.Plan = starPlan(dim, fact, "D_ID")
		}
		c := e.cachedPlan(q)
		if r := c.free; r != nil && r.next != nil {
			n := r.next
			r.next, n.next, c.free = n.next, r, n
		}
		if r := c.free; r != nil && r.phys != nil && r.phys != c.phys {
			stale++
		}
		e.Submit(track(q, again, again))
	}
	for i := 0; i < 6; i++ {
		planClient(i)
	}

	rng := rand.New(rand.NewSource(7))
	cols := big.Parts[0].Columns
	shedBatches := 0
	var ws []testWrite
	e.Sim.AddActor(sim.ActorFunc(func(now float64) {
		if now >= stopAt || e.Sim.Steps()%3 != 0 {
			return
		}
		ws = ws[:0]
		for k := 0; k < 1+rng.Intn(12); k++ {
			w := testWrite{col: rng.Intn(len(cols)), socket: rng.Intn(4), row: -1, v: rng.Int63n(1 << 12)}
			if rng.Intn(2) == 0 {
				w.row = rng.Intn(cols[w.col].Rows)
			}
			ws = append(ws, w)
		}
		submitWrites(e, "w", cols, ws, func() { shedBatches++ })
	}))

	var tr *trace.Tracer
	for step := 0; e.Sim.Now() < stopAt; step++ {
		if step == 100 {
			tr = e.EnableTracing(trace.Config{})
		}
		if step%7 == 0 {
			e.Costs.IndexSelectivityThreshold = 1e-3 * float64(1+step%2)
		}
		e.Sim.Step()
	}
	for steps := 0; e.ActiveStatements() > 0 || ctl.Queued() > 0 || ctl.InFlight() > 0; steps++ {
		if steps > 1_000_000 {
			t.Fatal("statements never drained")
		}
		e.Sim.Step()
	}

	for id, n := range fired {
		if n != 1 {
			t.Fatalf("statement %d: ended %d times, want once", id, n)
		}
	}
	st := reg.Stats()
	if st.Attached == 0 || st.Wraps == 0 || st.Merged == 0 {
		t.Errorf("no mid-flight attach, wrap pass or merged launch: %+v", st)
	}
	reads := ctl.Stats("t0").Shed + ctl.Stats("t1").Shed
	plans := ctl.Stats("p")
	if plans.Completed == 0 || plans.Shed == 0 {
		t.Errorf("admission completed %d and shed %d plan statements, want some of each", plans.Completed, plans.Shed)
	}
	writes := ctl.Stats("w")
	if reads == 0 || writes.Shed == 0 || writes.Completed == 0 || uint64(shedBatches) != writes.Shed {
		t.Errorf("admission shed %d reads and %d of %d write batches (%d seen by OnShed), want some of each",
			reads, writes.Shed, writes.Submitted, shedBatches)
	}
	queued, zeroFollowers := 0, 0
	for _, s := range tr.Statements() {
		if s.Admitted > s.Submitted {
			queued++
		}
		if len(s.Phases) > 0 && s.Phases[0].Name == "regions" && s.Done >= 0 && s.Phases[len(s.Phases)-1].Tasks == 0 {
			zeroFollowers++
		}
	}
	if queued == 0 {
		t.Error("no traced statement waited in an admission queue")
	}
	if zeroFollowers == 0 {
		t.Error("no zero-match follower completed inside a barrier loop")
	}
	if stale == 0 {
		t.Error("no plan record was taken holding a plan its entry had replaced")
	}
	out := fmt.Sprintf("%s%+v shed=%d/%d writes=%+v plans=%+v", metrics.Fingerprint(e.Counters), st, reads, shedBatches,
		[]uint64{writes.Submitted, writes.Admitted, writes.Completed, writes.Shed},
		[]uint64{plans.Submitted, plans.Admitted, plans.Completed, plans.Shed})
	for _, name := range ctl.TenantNames() {
		ts := ctl.Stats(name)
		for _, h := range []*metrics.Histogram{ts.Latency, ts.Wait} {
			out += fmt.Sprint(name, h.N(), h.Mean(), h.P50(), h.P99(), h.Max())
		}
	}
	for _, c := range cols {
		if c.Delta != nil {
			out += fmt.Sprint(c.Name, c.Delta.Rows(), c.Delta.InsertRows())
		}
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
	if os.Getenv("NUMACS_PRINT_FINGERPRINT") != "" {
		t.Logf("%d statements, %d queued, %d zero-match followers, %d stale plan records, %d reads and %d batches shed, %+v, fingerprint %s",
			len(fired), queued, zeroFollowers, stale, reads, shedBatches, st, got)
	}
	if got != admissionReuseFingerprint {
		t.Fatalf("fingerprint %s, want %s", got, admissionReuseFingerprint)
	}
}

// TestEmptyWriteBatchFreesSlot: an admitted write batch that touches no
// fragment completes inside its admission Run and still frees its
// concurrency slot: with a limit of one, the next batch runs too.
func TestEmptyWriteBatchFreesSlot(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 1, 1000, false)
	ctl := e.EnableAdmission(admit.Config{MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1})
	applied := 0
	for i := 0; i < 2; i++ {
		b := e.WriteBatch(tbl.Parts[0].Columns)
		b.Tenant, b.OnApply = "w", func(int, int) { applied++ }
		e.SubmitWrite(b)
	}
	if st := ctl.Stats("w"); applied != 2 || st.Completed != 2 || ctl.InFlight() != 0 {
		t.Fatalf("applied %d and completed %d empty batches with %d in flight, want 2, 2 and 0",
			applied, st.Completed, ctl.InFlight())
	}
}

// submitWrites submits ws over cols as one write batch of tenant.
func submitWrites(e *Engine, tenant string, cols []*colstore.Column, ws []testWrite, onShed func()) {
	b := e.WriteBatch(cols)
	for _, w := range ws {
		if w.row >= 0 {
			b.Update(w.col, w.socket, w.row, w.v)
		} else {
			b.Insert(w.col, w.socket, w.v)
		}
	}
	b.Tenant, b.OnShed = tenant, onShed
	e.SubmitWrite(b)
}

// joinNow starts q at once, without admission or the per-query overhead:
// a cohort member enters the registry before joinNow returns.
func joinNow(e *Engine, q *Query) {
	r := e.record(q)
	r.adm.Trace = e.startStatement(q.Tenant, q.Class, q)
	if r.begin(0, e.Sim.Now()) {
		r.join()
	}
}
