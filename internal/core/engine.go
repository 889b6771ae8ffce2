// Package core is the execution engine tying the paper's contributions
// together: it schedules concurrent column scans over placed data (Section
// 5.2), applying one of the three task scheduling strategies (OS, Target,
// Bound) and consulting the Page Socket Mappings of the selected column to
// derive task affinities. Every read statement enters through one body,
// SubmitBatch's (Submit is the batch of one): it is checked, traced,
// admitted, planned by internal/plan, and executed as an operator pipeline
// on the internal/exec layer — a scan composed with a materialization or
// aggregation, or any planned composition such as scan -> join -> aggregate
// — driven by task completions on the simulated machine.
package core

import (
	"math/rand"

	"numacs/internal/admit"
	"numacs/internal/chaos"
	"numacs/internal/exec"
	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/placement"
	"numacs/internal/plan"
	"numacs/internal/sched"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/trace"

	"numacs/internal/colstore"
)

// Strategy is a task scheduling strategy (Section 6's OS/Target/Bound).
type Strategy = exec.Strategy

const (
	// OSched leaves scheduling to the operating system: no task affinities,
	// no binding; the OS balances (and migrates) threads.
	OSched = exec.OSched
	// Target assigns task affinities; tasks may still be stolen by other
	// sockets.
	Target = exec.Target
	// Bound assigns task affinities and sets the hard-affinity flag:
	// inter-socket stealing is prevented.
	Bound = exec.Bound
)

// OLAPClass marks heavy analytic scans (generous deadline).
const OLAPClass = admit.OLAP

// Costs holds the calibrated cost-model constants.
type Costs = exec.Costs

// DefaultCosts returns the calibrated defaults.
func DefaultCosts() Costs { return exec.DefaultCosts() }

// Engine executes queries on a simulated machine.
type Engine struct {
	Machine  *topology.Machine
	Sim      *sim.Engine
	HW       *hw.Hardware
	Sched    *sched.Scheduler
	Placer   *placement.Placer
	Counters *metrics.Counters
	Costs    Costs

	// ConcurrencyHintEnabled enables the task-granularity hint of [28]
	// (default true; the ablation benchmark switches it off).
	ConcurrencyHintEnabled bool

	// DisableCoalesce turns off the materialization-preprocessing
	// optimization of Section 5.2 that merges contiguous same-socket output
	// regions before issuing tasks (ablation only).
	DisableCoalesce bool

	// MergesCompleted counts background delta merges that finished, and
	// MergePagesCopied the pages their rebuilds wrote (observability for the
	// write path; see write.go).
	MergesCompleted  int
	MergePagesCopied int64

	// Admit is the optional statement-admission controller (EnableAdmission
	// wires one). When set, Submit and SubmitWrite route through it: queries
	// wait in per-tenant queues under weighted-fair admission, the elastic
	// concurrency loop bounds how many run at once, and overload sheds. Nil
	// means direct dispatch — the pre-admission engine, unchanged.
	Admit *admit.Controller

	// Shared is the optional scan-cohort registry (EnableSharedScans wires
	// one). When set, shareable scans — parallel, index-free,
	// single-predicate statements over single-part tables — route through
	// it: concurrent scans of the same column merge into cohorts that pay
	// one physical memory pass for all member predicates. Nil means every
	// statement traverses its column privately — the pre-sharing engine,
	// unchanged.
	Shared *sharedscan.Registry

	// Chaos is the optional fault injector (EnableChaos wires one). When set,
	// a scheduled fault script runs against the engine mid-simulation: sockets
	// go offline and return, memory controllers and links throttle. Nil — or
	// an empty schedule — leaves every execution path bit-identical to the
	// pre-chaos engine (the hooks are capacity writes and a nil check).
	Chaos *chaos.Injector

	// Trace is the optional flight recorder (EnableTracing wires one). When
	// set, every statement gets a span record threaded through the admission,
	// cohort, and pipeline layers, control-plane decisions land in its
	// decision ring, and (when configured) a sampler actor records windowed
	// counter time-series. Nil leaves every path bit-identical to the
	// untraced engine: tracing is passive, and each hook is one nil check.
	Trace *trace.Tracer

	env              *exec.Env
	rng              *rand.Rand
	activeStatements int

	// plans caches every statement's physical plan (plancache.go); nPlans
	// counts its entries, and snap is the buffer a statement collects its
	// entry's statistics into.
	plans  map[planKey][]*cachedPlan
	nPlans int
	snap   []plan.ColumnStats

	// free is the free list of statement records (shared.go), which serve
	// every entry of the plan cache, and records counts the records made.
	free    *stmtRec
	records int

	// writeFree is the free list of write batches.
	writeFree *WriteBatch
}

// DefaultStep is the simulator step length. 20 µs keeps task-dispatch
// quantization well below typical task durations; large-machine experiments
// pass a coarser step explicitly for speed.
const DefaultStep = 20e-6

// New creates an engine for the machine with all substrates wired up.
func New(m *topology.Machine, seed int64) *Engine {
	return NewWithStep(m, seed, DefaultStep)
}

// NewWithStep creates an engine with an explicit simulator step length.
func NewWithStep(m *topology.Machine, seed int64, step float64) *Engine {
	simEngine := sim.New(step)
	h := hw.New(simEngine, m)
	counters := metrics.New(m.Sockets)
	scheduler := sched.New(h, counters)
	simEngine.AddActor(scheduler)
	e := &Engine{
		Machine:                m,
		Sim:                    simEngine,
		HW:                     h,
		Sched:                  scheduler,
		Placer:                 placement.New(m),
		Counters:               counters,
		Costs:                  DefaultCosts(),
		ConcurrencyHintEnabled: true,
		rng:                    rand.New(rand.NewSource(seed)),
	}
	e.env = &exec.Env{
		Machine:         m,
		Sim:             simEngine,
		HW:              h,
		Sched:           scheduler,
		Counters:        counters,
		Costs:           &e.Costs,
		Rand:            e.rng,
		ConcurrencyHint: e.ConcurrencyHint,
	}
	return e
}

// ExecEnv returns the engine's operator-pipeline environment: the tests'
// hook for running raw exec pipelines (a bare JoinOp, a hand-wired scan)
// outside the statement entry point, with no per-query overhead,
// admission, trace span or concurrency-hint accounting. Statements enter
// through Submit.
func (e *Engine) ExecEnv() *exec.Env { return e.env }

// EnableAdmission puts an admission controller in front of the engine's
// Submit and SubmitWrite paths and registers it as a simulation actor. It
// returns the controller for stats and tracing. Call it once, before
// submitting statements.
func (e *Engine) EnableAdmission(cfg admit.Config) *admit.Controller {
	if e.Admit != nil {
		panic("core: admission already enabled")
	}
	c := admit.New(cfg, e.Sched, e.Sim)
	e.Sim.AddActor(c)
	e.Admit = c
	if e.Trace != nil {
		c.Decisions = e.Trace.Decisions
	}
	return c
}

// EnableSharedScans puts a scan-cohort registry on the engine's Submit path
// and registers it as a simulation actor: concurrent shareable scans of the
// same column merge into cohorts that share one physical pass. It returns
// the registry for stats. Call it once, before submitting statements.
func (e *Engine) EnableSharedScans(cfg sharedscan.Config) *sharedscan.Registry {
	if e.Shared != nil {
		panic("core: shared scans already enabled")
	}
	r := sharedscan.New(cfg, e.Sim)
	e.Sim.AddActor(r)
	e.Shared = r
	if e.Trace != nil {
		r.Decisions = e.Trace.Decisions
	}
	return r
}

// EnableChaos registers a fault injector driven by the declarative schedule
// and returns it for assertions on the applied-fault log. tables lists the
// tables whose columns socket faults invalidate replicas of. Call it once,
// before running the simulation; an empty schedule is a valid (and inert)
// configuration, pinned bit-identical to the pre-chaos engine by the harness
// golden test.
func (e *Engine) EnableChaos(cfg chaos.Config, tables ...*colstore.Table) *chaos.Injector {
	if e.Chaos != nil {
		panic("core: chaos already enabled")
	}
	var cols []*colstore.Column
	for _, t := range tables {
		for _, p := range t.Parts {
			cols = append(cols, p.Columns...)
		}
	}
	in := chaos.New(cfg, e.HW, e.Sched, e.Placer, cols)
	e.Sim.AddActor(in)
	e.Chaos = in
	if e.Trace != nil {
		in.Decisions = e.Trace.Decisions
	}
	return in
}

// AttachItemTraffic wires hook as the engine's per-item traffic attribution
// (exec.Env.AddItemTraffic): every scan, materialization, aggregation and
// write flow then reports its bytes to hook against the column it touched.
// The adaptive placer attaches its heat accounting here; an engine with no
// hook attached builds no sample. Call it once, before running the
// simulation.
func (e *Engine) AttachItemTraffic(hook func(col *colstore.Column, socket int, t exec.Traffic)) {
	if e.env.AddItemTraffic != nil {
		panic("core: item traffic already attached")
	}
	e.env.AddItemTraffic = hook
}

// EnableTracing wires the flight recorder: statement spans on every Submit /
// SubmitBatch / SubmitWrite statement, control-plane decisions (placer moves,
// AIMD steps, cohort lifecycle, chaos faults, delta merges) in a bounded ring,
// and — when cfg.SampleInterval > 0 — a sampler actor recording windowed
// counter deltas. It returns the tracer for export and assertions. Call it
// once; it composes with the other Enable* calls in either order (layers
// already enabled are attached retroactively, layers enabled later attach
// themselves). Tracing is passive — it never starts flows or mutates engine
// state — so a traced run is bit-identical to an untraced one (pinned by the
// harness golden test).
func (e *Engine) EnableTracing(cfg trace.Config) *trace.Tracer {
	if e.Trace != nil {
		panic("core: tracing already enabled")
	}
	t := trace.New(cfg, e.Machine.Sockets)
	if cfg.SampleInterval > 0 {
		s := trace.NewSampler(cfg.SampleInterval, e.Counters)
		s.QueueDepths = e.Sched.SocketQueueDepths
		e.Sim.AddActor(s)
		t.Sampler = s
	}
	e.Trace = t
	if e.Admit != nil {
		e.Admit.Decisions = t.Decisions
	}
	if e.Shared != nil {
		e.Shared.Decisions = t.Decisions
	}
	if e.Chaos != nil {
		e.Chaos.Decisions = t.Decisions
	}
	return t
}

// ActiveStatements returns the number of in-flight queries.
func (e *Engine) ActiveStatements() int { return e.activeStatements }

// ConcurrencyHint returns the task-granularity budget for one partitionable
// operation: the machine's hardware contexts divided by the number of
// concurrently active statements [28]. Without the hint, operations always
// fan out to the maximum.
func (e *Engine) ConcurrencyHint() int {
	total := e.Machine.TotalThreads()
	if !e.ConcurrencyHintEnabled {
		return total
	}
	n := e.activeStatements
	if n < 1 {
		n = 1
	}
	h := total / n
	if h < 1 {
		h = 1
	}
	return h
}

// Query describes one read statement: the plain fields a SELECT ... WHERE
// col BETWEEN ? AND ? execution, Plan any shape they cannot describe. A
// Query is its caller's: Submit copies what the engine needs and keeps no
// reference to it once Submit returns, so the caller may reuse, change or
// drop it then.
type Query struct {
	Table       *colstore.Table
	Column      string
	Selectivity float64

	// ExtraPredicateColumns adds conjunctive range predicates on further
	// columns: the find phase of Section 5.2 is repeated, in parallel, for
	// each predicate column, and the qualifying set is their intersection
	// (the paper discusses this generalization in Section 6). Each extra
	// predicate uses the same Selectivity.
	ExtraPredicateColumns []string
	// ProjectColumns projects additional columns: the materialization phase
	// is repeated, in parallel, for each projected column (ibid.). The
	// predicate column itself is always materialized.
	ProjectColumns []string
	// UseIndex permits index lookups when the column has an index and the
	// optimizer's selectivity threshold admits them.
	UseIndex bool
	// Parallel enables intra-query parallelism (on in most experiments).
	Parallel bool
	Strategy Strategy
	// HomeSocket is where the client's connection thread runs.
	HomeSocket int
	// OnDone fires at completion with the query latency in seconds. Under
	// admission control the latency includes the admission-queue wait.
	OnDone func(latency float64)

	// Tenant names the issuing tenant for admission control; ignored (and
	// irrelevant) when the engine has no controller.
	Tenant string
	// Class is the statement's admission class (OLAP unless set); it selects
	// the load-shedding deadline.
	Class admit.Class
	// OnShed fires instead of OnDone when the admission controller sheds the
	// statement under overload.
	OnShed func()

	// Aggregate turns the second phase into an aggregation over the
	// qualifying rows instead of an output materialization (Section 6.3:
	// aggregations are parallelized like scans and task affinities are
	// defined the same way). AggBytesPerRow is the payload streamed from the
	// aggregated columns per qualifying row (local to the part under PP);
	// AggCyclesPerRow is the per-row compute — high for TPC-H Q1's
	// multiplications, low for BW-EML's simple expressions.
	Aggregate       bool
	AggBytesPerRow  float64
	AggCyclesPerRow float64

	// Plan, when set, is the statement's logical plan, for shapes the plain
	// fields cannot describe: star joins and multi-join chains
	// (plan.BuildStar). The plain table, predicate, projection and
	// aggregation fields are then ignored; Strategy, HomeSocket, the
	// callbacks and the admission fields still apply. Submission reads the
	// tree and neither keeps nor changes it: the plan cache plans its own
	// copy, so one tree may be submitted again and again.
	Plan *plan.Logical
}

// Submit is the entry point of every read statement, the batch of one
// (SubmitBatch); completion is reported via q.OnDone. The statement is
// checked first (see check) — an unknown or unplaced column panics here,
// before anything is queued — then opens its trace span and passes admission
// when the engine has a controller: it may wait in its tenant's queue (the
// wait counts toward the reported latency and ages its task priority), run
// with a coarsened fan-out, or be shed (q.OnShed fires instead of q.OnDone).
// Once admitted it is dispatched behind the fixed per-query overhead: a
// shareable scan joins the cohort registry, anything else runs as a private
// operator pipeline. The engine keeps no reference to q once Submit returns:
// it copies the fields it reads later, callbacks included.
func (e *Engine) Submit(q *Query) { e.SubmitBatch([]*Query{q}) }

// record takes a record for q to run on, pointed at q's plan-cache entry,
// checking q when the entry is made (plancache.go), and copies into it what
// the engine reads of q after submission: the strategy and home socket into
// its pipeline, and the callbacks. Its admission entry is bound to it once, so
// admitting a statement allocates nothing.
func (e *Engine) record(q *Query) *stmtRec {
	r := e.take(e.cachedPlan(q))
	r.m.Pipeline.Strategy, r.m.Pipeline.HomeSocket = q.Strategy, q.HomeSocket
	r.onDone, r.onShed = q.OnDone, q.OnShed
	return r
}

// startStatement opens a statement's trace span (nil when tracing is off),
// labelled with the data item the statement reads; q is nil for writes.
func (e *Engine) startStatement(tenant string, class admit.Class, q *Query) *trace.Statement {
	if e.Trace == nil {
		return nil
	}
	item := "write"
	switch {
	case q == nil:
	case q.Plan != nil:
		item = baseTable(q.Plan.Root).Name
	default:
		item = q.Table.Name + "." + q.Column
	}
	return e.Trace.StartStatement(tenant, class.String(), item, e.Sim.Now())
}

// enter queues a statement at the engine's admission controller: a is the
// statement's admission entry, owned by its record, and st its trace span.
// The statement queues under its tenant and class: a.Run fires when it is
// admitted (with the controller's fan-out cap and its enqueue time), and
// a.Done frees its concurrency slot; or a.OnShed fires instead.
func (e *Engine) enter(a *admit.Statement, tenant string, class admit.Class, st *trace.Statement) {
	a.Tenant, a.Class, a.Trace = tenant, class, st
	e.Admit.Submit(a)
}

// startOverhead starts the per-query overhead delay, which runs next when it
// ends. The overhead runs on the client's connection thread — a receiver
// thread outside the worker pool — so it adds latency without occupying a
// worker (units are seconds; the rate cap of 1 makes the flow a pure delay).
func (e *Engine) startOverhead(next func()) {
	e.Sim.StartFlow(&sim.Flow{Remaining: e.Costs.QueryOverheadSeconds, RateCap: 1, OnDone: next})
}
