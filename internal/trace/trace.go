// Package trace is the engine's flight recorder: a simulated-clock
// observability layer that captures what the paper's analysis needs but the
// end-of-run aggregates in internal/metrics cannot answer — *when* things
// happened and *why* the control planes acted. It records three coordinated
// views of a run:
//
//   - Statement traces: every statement owns a span record with exact
//     sim timestamps for its lifecycle — admission enqueue/admit/shed,
//     shared-scan join-window wait and mid-flight attach, each operator
//     phase (scan, materialize, build, probe, aggregate) with the gap
//     between phase open and first task pickup (the scheduler queue wait),
//     plus per-socket task counts and stolen tasks.
//   - A decision event log: a bounded ring buffer of control-plane
//     decisions with their cause — adaptive-placer actions with the heat
//     numbers that triggered them, admission AIMD limit changes and
//     deadline sheds, cohort launches/wraps/sheds, chaos fault injections,
//     and delta merges.
//   - Windowed time-series: a simulation actor (Sampler) snapshots
//     metrics.Counters deltas every interval — per-socket memory
//     throughput, link traffic, completed statements, queue depths — the
//     shared replacement for the bespoke per-window counters the chaos
//     experiments used to hand-roll.
//
// The hooks that feed the recorder live in admit, sharedscan, exec, sched,
// adaptive, chaos, and core, and every one is a nil-checked optional field:
// an engine without tracing enabled takes one nil check per hook site and is
// bit-identical to the pre-trace engine (pinned by the harness golden test
// TestTraceDisabledBitIdentical). Tracing itself is passive — it records
// timestamps and counters but starts no flows and mutates no engine state —
// so even an enabled recorder cannot perturb a run.
package trace

// Config tunes the recorder. The zero value is usable: New fills every zero
// field with the documented default.
type Config struct {
	// DecisionCap bounds the decision ring buffer (default 4096). When the
	// ring wraps, the oldest decisions are dropped; DecisionLog.Dropped
	// reports how many.
	DecisionCap int
	// SampleInterval is the time-series sampling interval in virtual
	// seconds. Zero disables the sampler (statement traces and the decision
	// log still record).
	SampleInterval float64
}

// Tracer is the flight recorder for one engine run. core.Engine.EnableTracing
// builds one and threads its hooks through the engine layers.
type Tracer struct {
	// Decisions is the control-plane decision log. The admission controller,
	// cohort registry, adaptive placer, chaos injector, and merge path all
	// record into it.
	Decisions *DecisionLog
	// Sampler is the windowed time-series actor, nil when
	// Config.SampleInterval is zero. The engine registers it as a sim actor.
	Sampler *Sampler

	sockets    int
	statements []*Statement
}

// New builds a tracer for a machine with the given socket count. The caller
// wires the Sampler separately (it needs the engine's counters).
func New(cfg Config, sockets int) *Tracer {
	if cfg.DecisionCap <= 0 {
		cfg.DecisionCap = 4096
	}
	return &Tracer{
		Decisions: NewDecisionLog(cfg.DecisionCap),
		sockets:   sockets,
	}
}

// StartStatement opens a statement trace at the submission instant. The
// returned record is threaded through the admission, cohort, and pipeline
// hooks, which stamp its lifecycle as it progresses.
func (t *Tracer) StartStatement(tenant, class, item string, now float64) *Statement {
	s := &Statement{
		ID: len(t.statements), Tenant: tenant, Class: class, Item: item,
		Submitted: now, Admitted: now, Done: -1,
		SocketTasks: make([]int, t.sockets),
		open:        -1,
	}
	t.statements = append(t.statements, s)
	return s
}

// Statements returns every statement trace opened so far, in submission
// order.
func (t *Tracer) Statements() []*Statement { return t.statements }

// Data snapshots the recorder's content for export: statements, the decision
// log (oldest first), and the time-series samples when a sampler ran.
func (t *Tracer) Data() *Data {
	d := &Data{
		Meta: Meta{
			Schema:           SchemaVersion,
			Sockets:          t.sockets,
			DecisionsTotal:   t.Decisions.Total(),
			DecisionsDropped: t.Decisions.Dropped(),
		},
		Statements: t.statements,
		Decisions:  t.Decisions.Events(),
	}
	if t.Sampler != nil {
		d.Samples = t.Sampler.Samples()
	}
	return d
}

// SchemaVersion identifies the flight-recorder dump layout. WriteJSONL stamps
// it into the dump's leading meta line, so a reader can reject dumps written
// under a different version instead of silently misreading a stale
// artifact. Bump it whenever a record's fields change meaning.
const SchemaVersion = 2

// Meta describes a recorder dump: the schema version, the run that produced
// it, the machine's socket count (the length of per-socket slices), and how
// much of the decision ring survived. A nonzero DecisionsDropped means the
// suspect sets of any downstream analysis are incomplete.
type Meta struct {
	// Schema is the dump layout version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// RunID names the producing run (experiment id); empty when unset.
	RunID string `json:"run_id,omitempty"`
	// Sockets is the traced machine's socket count.
	Sockets int `json:"sockets"`
	// DecisionsTotal counts decisions ever recorded; DecisionsDropped the
	// ones the bounded ring discarded (oldest first).
	DecisionsTotal   uint64 `json:"decisions_total"`
	DecisionsDropped uint64 `json:"decisions_dropped"`
}

// Data is the exported flight-recorder content of one run — what the JSONL
// and Chrome exporters serialize and what the harness attaches to reports.
type Data struct {
	// Meta describes the dump (schema version, run id, socket count,
	// decision-ring drop counts).
	Meta Meta `json:"meta"`
	// Statements holds the per-statement span trees.
	Statements []*Statement `json:"statements"`
	// Decisions holds the surviving decision log, oldest first.
	Decisions []Decision `json:"decisions"`
	// Samples holds the windowed time-series (empty without a sampler).
	Samples []Sample `json:"samples,omitempty"`
}

// Statement is the span record of one statement's lifecycle, timestamps in
// virtual seconds. Admitted equals Submitted when no admission controller
// queued the statement; Done is -1 while in flight and for shed statements.
type Statement struct {
	// ID is the statement's index in submission order.
	ID int `json:"id"`
	// Tenant, Class and Item identify the statement: the issuing tenant (""
	// without admission), the admission class, and the scanned data item
	// (table.column) or pipeline label.
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	Item   string `json:"item"`

	// Submitted is the submission instant; Admitted the instant admission
	// dispatched it (equal to Submitted without queuing); Done the
	// completion instant (-1 until complete).
	Submitted float64 `json:"submitted"`
	Admitted  float64 `json:"admitted"`
	Done      float64 `json:"done"`

	// Shed reports the statement was dropped; ShedAt and ShedBy record when
	// and by which layer ("admission" queue deadline or "join-window").
	Shed   bool    `json:"shed,omitempty"`
	ShedAt float64 `json:"shed_at,omitempty"`
	ShedBy string  `json:"shed_by,omitempty"`

	// Attached reports a mid-flight attach to a running shared pass;
	// JoinWait is the time spent waiting on the cohort lifecycle between
	// registry submission and pass launch.
	Attached bool    `json:"attached,omitempty"`
	JoinWait float64 `json:"join_wait,omitempty"`

	// Phases are the statement's operator phases in execution order.
	Phases []Phase `json:"phases,omitempty"`
	// SocketTasks counts the statement's executed tasks per socket; Stolen
	// counts the ones picked up by a cross-socket steal.
	SocketTasks []int `json:"socket_tasks,omitempty"`
	Stolen      int   `json:"stolen,omitempty"`

	cohortQueued float64
	open         int
}

// Phase is one operator phase of a statement: the span between the phase
// barrier opening and closing, with the first-task pickup instant that
// separates scheduler queue wait from execution.
type Phase struct {
	// Name is the operator kind ("scan", "materialize", "aggregate", ...).
	Name string `json:"name"`
	// Start and End bound the phase; FirstTask is when a worker picked up
	// the phase's first task (-1 when the phase ran no tasks). FirstTask -
	// Start is the phase's scheduler queue wait.
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	FirstTask float64 `json:"first_task"`
	// Tasks counts the phase's tasks.
	Tasks int `json:"tasks"`
}

// MarkAdmitted stamps the admission instant (the admission controller's
// dispatch hook).
func (s *Statement) MarkAdmitted(now float64) { s.Admitted = now }

// MarkShed stamps a drop: by names the shedding layer.
func (s *Statement) MarkShed(now float64, by string) {
	s.Shed = true
	s.ShedAt = now
	s.ShedBy = by
}

// MarkDone stamps completion (the pipeline's last barrier).
func (s *Statement) MarkDone(now float64) { s.Done = now }

// MarkCohortQueued stamps entry into the shared-scan registry's lifecycle.
func (s *Statement) MarkCohortQueued(now float64) { s.cohortQueued = now }

// MarkCohortLaunched stamps the cohort pass launch, closing the join wait.
func (s *Statement) MarkCohortLaunched(now float64) { s.JoinWait = now - s.cohortQueued }

// MarkAttached flags a mid-flight attach to a running pass.
func (s *Statement) MarkAttached() { s.Attached = true }

// PhaseOpen starts a phase span (the pipeline's phase barrier).
func (s *Statement) PhaseOpen(name string, now float64) {
	s.Phases = append(s.Phases, Phase{Name: name, Start: now, End: -1, FirstTask: -1})
	s.open = len(s.Phases) - 1
}

// PhaseClose ends the open phase span.
func (s *Statement) PhaseClose(now float64) {
	if s.open >= 0 {
		s.Phases[s.open].End = now
		s.open = -1
	}
}

// TaskStart records one task pickup: the executing socket, whether the task
// was stolen across sockets, and — for the open phase's first task — the
// pickup instant that ends the phase's queue wait.
func (s *Statement) TaskStart(socket int, stolen bool, now float64) {
	if socket >= 0 && socket < len(s.SocketTasks) {
		s.SocketTasks[socket]++
	}
	if stolen {
		s.Stolen++
	}
	if s.open >= 0 {
		p := &s.Phases[s.open]
		p.Tasks++
		if p.FirstTask < 0 {
			p.FirstTask = now
		}
	}
}

// QueueWait returns the admission-queue wait (zero without admission).
func (s *Statement) QueueWait() float64 { return s.Admitted - s.Submitted }

// SchedulerWait sums, over phases that ran tasks, the gap between the phase
// opening and its first task pickup — the time the statement's work sat in
// the scheduler queues.
func (s *Statement) SchedulerWait() float64 {
	w := 0.0
	for _, p := range s.Phases {
		if p.FirstTask >= 0 {
			w += p.FirstTask - p.Start
		}
	}
	return w
}

// ExecSeconds sums the first-task-to-close spans of the phases — the time
// the statement's work was actually executing (or draining) on workers.
func (s *Statement) ExecSeconds() float64 {
	w := 0.0
	for _, p := range s.Phases {
		if p.FirstTask >= 0 && p.End >= 0 {
			w += p.End - p.FirstTask
		}
	}
	return w
}

// Tasks returns the statement's total executed-task count.
func (s *Statement) Tasks() int {
	n := 0
	for _, t := range s.SocketTasks {
		n += t
	}
	return n
}

// Decision is one control-plane decision with its cause: who decided
// (Source), what (Kind), about which item, and the numbers that triggered it
// (Cause, human-readable).
type Decision struct {
	// Time is the decision instant in virtual seconds.
	Time float64 `json:"time"`
	// Source names the deciding layer: "placer", "admission", "cohort",
	// "chaos", or "merge".
	Source string `json:"source"`
	// Kind is the decision within the source ("replicate", "aimd-throttle",
	// "cohort-launch", "socket-offline", ...).
	Kind string `json:"kind"`
	// Item names the decision's subject: a column, tenant, or cohort key.
	Item string `json:"item,omitempty"`
	// From and To are socket operands where they apply (-1 otherwise).
	From int `json:"from"`
	To   int `json:"to"`
	// Cause explains the decision with the numbers that triggered it.
	Cause string `json:"cause,omitempty"`
}

// DecisionLog is a bounded ring buffer of decisions: when full, recording a
// new decision drops the oldest. The bound keeps long chatty runs (an AIMD
// controller deciding every millisecond) from growing without limit.
type DecisionLog struct {
	capacity int
	buf      []Decision
	start    int
	total    uint64
}

// NewDecisionLog builds a ring holding at most capacity decisions.
func NewDecisionLog(capacity int) *DecisionLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &DecisionLog{capacity: capacity}
}

// Record appends a decision, dropping the oldest when the ring is full.
func (l *DecisionLog) Record(d Decision) {
	if len(l.buf) < l.capacity {
		l.buf = append(l.buf, d)
	} else {
		l.buf[l.start] = d
		l.start = (l.start + 1) % l.capacity
	}
	l.total++
}

// Events returns the surviving decisions, oldest first.
func (l *DecisionLog) Events() []Decision {
	out := make([]Decision, 0, len(l.buf))
	out = append(out, l.buf[l.start:]...)
	out = append(out, l.buf[:l.start]...)
	return out
}

// Total returns the number of decisions ever recorded, dropped ones
// included.
func (l *DecisionLog) Total() uint64 { return l.total }

// Dropped returns how many decisions the ring has discarded.
func (l *DecisionLog) Dropped() uint64 { return l.total - uint64(len(l.buf)) }
