// Package exec is the composable operator-pipeline layer that every
// simulated statement — scans, materialization, aggregation, hash joins —
// executes on. It factors out the machinery the paper routes through one
// NUMA-aware task scheduler: deriving per-partition task affinities from the
// Page Socket Mappings of the operator's inputs (Section 5.2), applying the
// OS/Target/Bound scheduling strategy (Section 6), fanning a phase out under
// the concurrency hint [28], and sequencing phases with barriers.
//
// An Operator produces the tasks of one pipeline phase; a Pipeline runs its
// operators in order, scheduling each operator's tasks through the shared
// scheduler and advancing past a barrier when the phase drains. Operators
// hand results downstream by direct reference (a MaterializeOp points at the
// ScanOp whose qualifying regions it consumes), so composed statements like
// scan -> join-build -> join-probe -> aggregate are ordinary pipelines.
package exec

import (
	"fmt"
	"math/rand"

	"numacs/internal/colstore"
	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/psm"
	"numacs/internal/sched"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/trace"
)

// Strategy is a task scheduling strategy (Section 6's OS/Target/Bound).
type Strategy int

const (
	// OSched leaves scheduling to the operating system: no task affinities,
	// no binding; the OS balances (and migrates) threads.
	OSched Strategy = iota
	// Target assigns task affinities; tasks may still be stolen by other
	// sockets.
	Target
	// Bound assigns task affinities and sets the hard-affinity flag:
	// inter-socket stealing is prevented.
	Bound
)

// String returns the paper's name for the strategy (Section 6: OS, Target,
// Bound).
func (s Strategy) String() string {
	switch s {
	case OSched:
		return "OS"
	case Target:
		return "Target"
	case Bound:
		return "Bound"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// AffinityFor applies the scheduling strategy to a natural data socket: the
// single place task affinity and hardness are derived from a socket for every
// operator in the system. It encodes the Section 5.2 rule — a task's
// affinity is the socket its input pages live on (per the PSMs) — under the
// Section 6 strategies: OS drops the affinity, Target sets it soft, Bound
// sets it hard. For replicated data the socket itself is chosen load-aware
// at plan time (PartitionsWeighted, BestReplica) and then fed through here
// like any other data socket.
func AffinityFor(strategy Strategy, socket int) (affinity int, hard bool) {
	if socket < 0 {
		return -1, false
	}
	switch strategy {
	case OSched:
		return -1, false
	case Target:
		return socket, false
	default:
		return socket, true
	}
}

// Env bundles what operators need from the engine: the simulated machine and
// its substrates, the cost model, and the engine hooks — the concurrency
// hint of [28] and the per-item traffic attribution feeding the Section 7
// adaptive data placer.
type Env struct {
	Machine  *topology.Machine
	Sim      *sim.Engine
	HW       *hw.Hardware
	Sched    *sched.Scheduler
	Counters *metrics.Counters
	Costs    *Costs
	// Rand drives the analytic match-count jitter of the scan model.
	Rand *rand.Rand

	// ConcurrencyHint returns the task-granularity budget for one
	// partitionable operation [28]. Nil means "all hardware contexts".
	ConcurrencyHint func() int
	// AddItemTraffic attributes DRAM traffic to a named data item for the
	// adaptive data placer (Section 7); nil disables attribution. socket is
	// the serving socket (-1 when the access spreads over several sockets,
	// e.g. an interleaved dictionary); per-socket attribution is what lets
	// the placer tell which replica of a replicated column earns its keep.
	AddItemTraffic func(item string, socket int, t Traffic)

	// freeFlows is the free list of flow records (see flowRec).
	freeFlows *flowRec
}

// Traffic is one attribution sample for a data item: total DRAM bytes plus
// the breakdown the adaptive placer's levers key on — IV streaming and
// dictionary/index probes identify read-hot items (replication candidates),
// delta-scan bytes feed the merge slowdown heuristic, and write bytes arm
// the write-guard (a written column is never newly replicated and write-hot
// replicas are reclaimed).
type Traffic struct {
	Bytes      float64
	IVBytes    float64
	DictBytes  float64
	DeltaBytes float64
	WriteBytes float64
}

// hint returns the concurrency budget.
func (env *Env) hint() int {
	if env.ConcurrencyHint != nil {
		return env.ConcurrencyHint()
	}
	return env.Machine.TotalThreads()
}

// MCLoad returns the instantaneous per-socket memory-controller demand of
// the simulated machine — the utilization signal replica-aware scheduling
// weighs sockets by (see PartitionsWeighted and BestReplica).
func (env *Env) MCLoad() []float64 {
	return env.HW.MCLoad()
}

// mcSnapshot is a statement's lazy MC-load snapshot: the first replicated
// column whose placement weighs sockets by load takes it, every later one
// reuses it, and a statement over unreplicated columns never walks the
// active flows at all. Open starts no flows, so whichever column takes the
// snapshot sees the same instant and the same values.
type mcSnapshot struct {
	env  *Env
	load []float64
}

// forColumn returns the snapshot for a replicated column and nil for any
// other (an unreplicated column's placement does not depend on load).
func (m *mcSnapshot) forColumn(col *colstore.Column) []float64 {
	if !col.Replicated() {
		return nil
	}
	if m.load == nil {
		m.load = m.env.MCLoad()
	}
	return m.load
}

// addItem attributes per-item traffic when the hook is wired.
func (env *Env) addItem(item string, socket int, t Traffic) {
	if env.AddItemTraffic != nil {
		env.AddItemTraffic(item, socket, t)
	}
}

// addSpreadTraffic attributes DRAM bytes across the destination sockets of a
// random-access flow (interleaved structures spread over all sockets).
func (env *Env) addSpreadTraffic(src int, dstWeights []float64, bytes, linkData, linkTotal float64) {
	first := true
	for dst, frac := range dstWeights {
		if frac == 0 {
			continue
		}
		ld, t := 0.0, 0.0
		if first {
			// Attribute link traffic once (it is already aggregated).
			ld, t = linkData, linkTotal
			first = false
		}
		env.Counters.AddMemoryTraffic(src, dst, bytes*frac, ld, t)
	}
}

// Task is one schedulable unit of operator work. Socket is the natural data
// socket the task's inputs live on (-1 for none); the pipeline derives the
// scheduling affinity from it via AffinityFor.
type Task struct {
	Socket int
	// Run starts the task on a worker and must eventually call done.
	Run func(w *sched.Worker, done func())
}

// Operator produces the tasks of one pipeline phase — one of the
// barrier-separated phases of Section 5.2's statement execution (find,
// output materialization, aggregation, join build/probe).
type Operator interface {
	// Open is called when the operator's phase begins — every upstream
	// operator has passed its barrier — and returns the tasks to schedule.
	// Returning no tasks completes the phase immediately.
	Open(p *Pipeline) []Task
	// Close is called at the phase barrier, after the last task finished and
	// before the next operator opens.
	Close(p *Pipeline)
}

// Pipeline sequences operators with barriers on a simulated machine. All
// tasks carry the statement's issue timestamp as their priority, so the
// scheduler completes a statement's tasks close together (Section 5.1).
type Pipeline struct {
	Env *Env
	// Strategy is the statement's scheduling strategy, applied to every
	// operator task via AffinityFor.
	Strategy Strategy
	// HomeSocket is where the issuing client's connection thread runs.
	HomeSocket int
	// IssuedAt is the statement timestamp: task priority and the base of the
	// completion latency.
	IssuedAt float64
	// Ops are the operators, executed in order with a barrier between them.
	Ops []Operator
	// OnDone fires when the last operator's barrier clears, with the
	// statement latency in seconds.
	OnDone func(latency float64)

	// MaxFanout caps the per-operator task fan-out of this statement — the
	// admission controller's elastic-granularity lever: under deep scheduler
	// queues, statements split coarser so the queues drain instead of
	// filling with more slices of the same work. Zero means no cap, leaving
	// the concurrency hint alone in charge (bit-identical to the planner
	// without admission control).
	MaxFanout int

	// Trace, when non-nil, is the statement's flight-recorder span: the
	// pipeline stamps each operator phase (open, first task pickup, barrier)
	// and the completion instant onto it. Nil when tracing is disabled —
	// every use is nil-checked, keeping the hot path cost at one comparison.
	Trace *trace.Statement

	pending int
	// phase is the index of the running operator; barrier and onStart are
	// built once per pipeline and shared by every task it submits.
	phase   int
	barrier func()
	onStart func(w *sched.Worker, stolen bool)
}

// Hint returns the task-granularity budget of this statement's partitionable
// phases: the engine's concurrency hint [28], capped by the statement's
// MaxFanout when the admission controller set one.
func (p *Pipeline) Hint() int {
	h := p.Env.hint()
	if p.MaxFanout > 0 && p.MaxFanout < h {
		return p.MaxFanout
	}
	return h
}

// Start opens the first operator. The pipeline records the statement latency
// into Env.Counters when the last barrier clears.
func (p *Pipeline) Start() {
	p.barrier = p.taskDone
	if p.Trace != nil {
		p.onStart = func(w *sched.Worker, stolen bool) {
			p.Trace.TaskStart(w.Socket(), stolen, p.Env.Sim.Now())
		}
	}
	p.runPhase(0)
}

// runPhase opens operator i and submits its tasks, all from one slice of
// scheduler tasks; the phase barrier runs as each task's Then hook.
func (p *Pipeline) runPhase(i int) {
	if i >= len(p.Ops) {
		p.finish()
		return
	}
	p.phase = i
	if p.Trace != nil {
		p.Trace.PhaseOpen(PhaseName(p.Ops[i]), p.Env.Sim.Now())
	}
	tasks := p.Ops[i].Open(p)
	if len(tasks) == 0 {
		p.closePhase()
		return
	}
	p.pending = len(tasks)
	sts := make([]sched.Task, len(tasks))
	for k, t := range tasks {
		affinity, hard := AffinityFor(p.Strategy, t.Socket)
		sts[k] = sched.Task{
			Priority: p.IssuedAt, Affinity: affinity, Hard: hard, CallerSocket: p.HomeSocket,
			Run: t.Run, Then: p.barrier, OnStart: p.onStart,
		}
		p.Env.Sched.Submit(&sts[k])
	}
}

// taskDone is the phase barrier.
func (p *Pipeline) taskDone() {
	p.pending--
	if p.pending == 0 {
		p.closePhase()
	}
}

// closePhase closes the running operator and opens the next one.
func (p *Pipeline) closePhase() {
	if p.Trace != nil {
		p.Trace.PhaseClose(p.Env.Sim.Now())
	}
	p.Ops[p.phase].Close(p)
	p.runPhase(p.phase + 1)
}

func (p *Pipeline) finish() {
	lat := p.Env.Sim.Now() - p.IssuedAt
	if p.Trace != nil {
		p.Trace.MarkDone(p.Env.Sim.Now())
	}
	p.Env.Counters.AddLatency(lat)
	if p.OnDone != nil {
		p.OnDone(lat)
	}
}

// PhaseName maps an operator to its flight-recorder phase label.
func PhaseName(op Operator) string {
	switch op.(type) {
	case *ScanOp:
		return "scan"
	case *SharedScanOp:
		return "shared-scan"
	case *WrapScanOp:
		return "wrap-scan"
	case *MaterializeOp:
		return "materialize"
	case *AggregateOp:
		return "aggregate"
	case *joinBuild:
		return "build"
	case *joinProbe:
		return "probe"
	case *StaticRegions:
		return "regions"
	default:
		return "op"
	}
}

// Region is the per-partition output of a producing operator: how many
// qualifying matches a partition holds and the socket its data lives on. It
// is the input to output-materialization and aggregation scheduling
// (Section 5.2).
type Region struct {
	Col     *colstore.Column
	Part    *colstore.Part
	Socket  int
	Matches int
}

// RegionSource is an operator that yields qualifying matches downstream
// operators consume (ScanOp and JoinOp).
type RegionSource interface {
	Regions() []Region
}

// ---- shared partition fan-out and PSM-weight helpers ------------------------

// RowRange is one scheduling partition of a column's row space with the
// socket its bytes (majority) live on.
type RowRange struct {
	From, To, Socket int
}

// Partitions returns the scheduling partitions of a placed column: one per
// IVP partition with its majority socket, or one slice per replica for
// replicated columns (each slice scans its own replica locally, the row
// space split evenly). The find-phase fan-out uses PartitionsWeighted
// instead so replica slices track current MC utilization.
func Partitions(col *colstore.Column) []RowRange {
	return PartitionsWeighted(nil, col, nil)
}

// PartitionsWeighted is Partitions with replica-aware load balancing: for a
// replicated column, each replica's share of the row space is proportional
// to its socket's current memory-controller headroom (mcLoad as returned by
// Env.MCLoad; nil or unreplicated falls back to an even split). A loaded
// socket still receives a non-zero slice — the goal is to spread scan
// traffic across all copies (Section 4.2's replication placement), weighted
// away from saturated memory controllers, not to abandon them. The ranges
// are written into buf's storage.
func PartitionsWeighted(buf []RowRange, col *colstore.Column, mcLoad []float64) []RowRange {
	n := col.NumPartitions()
	if col.Replicated() {
		n = len(col.ReplicaSockets)
	}
	out := buf[:0]
	if cap(out) < n {
		out = make([]RowRange, 0, n)
	}
	if col.Replicated() {
		reps := col.ReplicaSockets
		weight := func(sock int) float64 {
			if mcLoad != nil && sock >= 0 && sock < len(mcLoad) {
				return 1 / (1 + mcLoad[sock])
			}
			return 1
		}
		total := 0.0
		for _, sock := range reps {
			total += weight(sock)
		}
		from := 0
		acc := 0.0
		for i, sock := range reps {
			acc += weight(sock)
			to := int(float64(col.Rows)*acc/total + 0.5)
			if i == len(reps)-1 {
				to = col.Rows
			}
			out = append(out, RowRange{From: from, To: to, Socket: sock})
			from = to
		}
		return out
	}
	for i := 0; i < n; i++ {
		f, t := col.PartitionBounds(i)
		out = append(out, RowRange{From: f, To: t, Socket: IVSocketForRows(col, f, t)})
	}
	return out
}

// BestReplica returns the replica socket a worker on src should access. A
// worker sitting on a replica socket always uses the local copy — spreading
// across copies happens at task fan-out (PartitionsWeighted), and a local
// access never crosses the interconnect. A worker elsewhere picks the copy
// minimizing access latency scaled by the serving memory controller's
// current load (1+demand), steering toward replicas with headroom. Returns
// -1 for an unreplicated column.
func BestReplica(env *Env, col *colstore.Column, src int) int {
	if len(col.ReplicaSockets) == 0 {
		return -1
	}
	load := env.MCLoad()
	best, bestCost := -1, 0.0
	for _, s := range col.ReplicaSockets {
		if s == src {
			return s
		}
		cost := env.Machine.Latency(src, s)
		if s >= 0 && s < len(load) {
			cost *= 1 + load[s]
		}
		if best < 0 || cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// leastLoadedSocket picks the socket with the smallest current MC demand
// (ties and nil load break toward the first listed socket).
func leastLoadedSocket(sockets []int, mcLoad []float64) int {
	if len(sockets) == 0 {
		return -1
	}
	best := sockets[0]
	for _, s := range sockets[1:] {
		if s >= 0 && s < len(mcLoad) && best >= 0 && best < len(mcLoad) && mcLoad[s] < mcLoad[best] {
			best = s
		}
	}
	return best
}

// singleSocket returns the one socket with non-zero weight, or -1 when the
// weights spread over several sockets (used for per-item traffic
// attribution: spread accesses are not attributable to one copy).
func singleSocket(weights []float64) int {
	found := -1
	for s, w := range weights {
		if w == 0 {
			continue
		}
		if found >= 0 {
			return -1
		}
		found = s
	}
	return found
}

// TasksPerPartition divides a concurrency budget across partitions, rounding
// up so every partition gets at least one task.
func TasksPerPartition(hint, partitions int) int {
	if partitions < 1 {
		partitions = 1
	}
	n := (hint + partitions - 1) / partitions
	if n < 1 {
		n = 1
	}
	return n
}

// SplitRows slices the row range [from,to) into at most n equal spans (fewer
// when the range has fewer rows than n), written into buf's storage.
func SplitRows(buf [][2]int, from, to, n int) [][2]int {
	rows := to - from
	if n > rows {
		n = rows
	}
	out := buf[:0]
	if cap(out) < n {
		out = make([][2]int, 0, n)
	}
	for i := 0; i < n; i++ {
		f := from + rows*i/n
		t := from + rows*(i+1)/n
		out = append(out, [2]int{f, t})
	}
	return out
}

// ivSocketBytes splits the IV bytes of rows [from,to), clamped to the end of
// the IV, by the socket serving them, into buf (psm.MaxSockets long), and
// returns the split with the clamped byte count. A replicated column is
// served whole by the replica BestReplica picks for a worker on src; any
// other column — and every column when env is nil — splits by its IV PSM.
func ivSocketBytes(env *Env, col *colstore.Column, src, from, to int, buf []int64) (perSocket []int64, n int64) {
	off := col.IVOffsetForRow(from)
	n = col.IVBytesForRows(from, to)
	if off+n > col.IVRange.Bytes {
		n = col.IVRange.Bytes - off
	}
	if env != nil && col.Replicated() {
		rep := BestReplica(env, col, src)
		perSocket = buf[:rep+1]
		clear(perSocket)
		perSocket[rep] = n
		return perSocket, n
	}
	return col.IVPSM.SocketBytes(col.IVRange, off, n, buf), n
}

// IVSocketForRows returns the socket backing the majority of the IV bytes of
// rows [from,to).
func IVSocketForRows(col *colstore.Column, from, to int) int {
	var buf [psm.MaxSockets]int64
	bytes, _ := ivSocketBytes(nil, col, -1, from, to, buf[:])
	best, bestB := -1, int64(0)
	for s, b := range bytes {
		if b > bestB {
			best, bestB = s, b
		}
	}
	return best
}

// IndexSocket returns the IX's socket, or -1 when it is interleaved (no
// affinity is assigned then, per Section 5.2).
func IndexSocket(col *colstore.Column) int {
	if col.IXPSM == nil {
		return -1
	}
	nonzero, sock := 0, -1
	for s := 0; s < psm.MaxSockets; s++ {
		if col.IXPSM.PagesOn(s) > 0 {
			nonzero++
			sock = s
		}
	}
	if nonzero == 1 {
		return sock
	}
	return -1 // interleaved
}

// ComponentWeights converts a component PSM into per-socket access
// fractions, written into buf's storage.
func ComponentWeights(buf []float64, sockets int, p *psm.PSM) []float64 {
	out := socketWeights(buf, sockets)
	if p == nil {
		out[0] = 1
		return out
	}
	total := 0.0
	for s := range out {
		pages := float64(p.PagesOn(s))
		out[s] = pages
		total += pages
	}
	if total == 0 {
		out[0] = 1
		return out
	}
	for s := range out {
		out[s] /= total
	}
	return out
}
