package exec

import (
	"fmt"
	"math"
	"slices"

	"numacs/internal/colstore"
	"numacs/internal/delta"
	"numacs/internal/psm"
	"numacs/internal/sched"
)

// ScanOp is the find phase of Section 5.2: parallel scan tasks over the
// indexvector (rounded to partition multiples), or a single index lookup per
// part when the optimizer's selectivity threshold admits one. Its Regions
// carry the per-partition match counts that materialization, aggregation, or
// a join build consume downstream.
type ScanOp struct {
	Table       *colstore.Table
	Selectivity float64
	// Cols holds the predicate columns resolved in every part
	// (ResolveColumns): the primary one, whose matches the Regions count,
	// then any conjunctive range predicates on further columns. The find
	// phase is repeated, in parallel, for each predicate column, and the
	// qualifying set is their intersection (the paper discusses this
	// generalization in Section 6); each extra predicate uses the same
	// Selectivity. The planner resolves them once per plan, so Open looks
	// up no name.
	Cols []*colstore.Column
	// UseIndex permits index lookups when the primary column has an index
	// and the optimizer's selectivity threshold admits them.
	UseIndex bool
	// Parallel enables intra-operator parallelism.
	Parallel bool

	regions []Region
	findTasks
	alls []*scanAll // scan-all task records, one per predicate column
	// spans holds a fan-out past Open's stack buffer (an idle or lightly
	// loaded engine's); it grows only then.
	spans []KernelSpan
}

// Regions implements RegionSource: the per-partition match counts, with the
// conjunctive extra-predicate intersection already applied.
func (s *ScanOp) Regions() []Region { return s.regions }

// ResolveColumns resolves names in every part of t, name by name: names[k]
// in part i is at k*len(t.Parts)+i. It panics on a name some part lacks.
func ResolveColumns(t *colstore.Table, names ...string) []*colstore.Column {
	out := make([]*colstore.Column, 0, len(names)*len(t.Parts))
	for _, name := range names {
		for _, part := range t.Parts {
			c := part.ColumnByName(name)
			if c == nil {
				panic(fmt.Sprintf("exec: no column %s", name))
			}
			out = append(out, c)
		}
	}
	return out
}

// IndexEligible is the single source of truth for the index-vs-scan decision
// of a statement that permits index use: the selectivity clears the cost
// model's threshold, and the predicate column col actually carries an index.
// ScanOp.Open applies it at execution time and the planner mirrors it as a
// physical-plan annotation, so EXPLAIN output and execution can never
// disagree.
func IndexEligible(costs *Costs, col *colstore.Column, selectivity float64) bool {
	return selectivity <= costs.IndexSelectivityThreshold && col != nil && col.Idx != nil
}

// predicates returns the number of predicate columns.
func (s *ScanOp) predicates() int { return len(s.Cols) / len(s.Table.Parts) }

// predicate returns predicate column k in every part.
func (s *ScanOp) predicate(k int) []*colstore.Column {
	n := len(s.Table.Parts)
	return s.Cols[k*n : (k+1)*n]
}

// Open plans the find tasks into the operator's records. Only the primary
// predicate column tracks regions (the materialization input); additional
// predicate columns run the same find phase in parallel and merely
// intersect the result (Section 6's multi-predicate discussion). Each task
// draws its matches as it is planned, in task order.
func (s *ScanOp) Open(p *Pipeline) []Task {
	env := p.Env
	s.regions = s.regions[:0]
	s.reset(0)
	// Every replica-socket decision of this statement sees one MC-load
	// snapshot, taken lazily by the first replicated column that needs it.
	mc := mcSnapshot{env: env}
	var spanBuf [16]KernelSpan
	var partBuf [8]RowRange
	var fragBuf [4]RowRange
	useIndex := s.UseIndex && IndexEligible(env.Costs, s.Cols[0], s.Selectivity)
	track := true
	// region opens a tracked region; matches adds m to the region opened
	// last.
	region := func(col *colstore.Column, part, socket int) {
		if track {
			s.regions = append(s.regions, Region{Col: col, Part: part, Socket: socket})
		}
	}
	matches := func(m int) {
		if track {
			s.regions[len(s.regions)-1].Matches += m
		}
	}
	// stream emits a private find stream (or index lookup) with m matches.
	stream := func(fs findStream, m int) {
		fs.n, fs.outBytes = 1, resultBytes(env, s.Selectivity, m, fs.to-fs.from)
		s.emit(env, fs)
		matches(m)
	}
	// plan emits the find tasks of predicate column k.
	plan := func(k int) {
		cols := s.predicate(k)
		if !s.Parallel && !useIndex && len(cols) > 1 {
			rows := 0
			for _, c := range cols {
				rows += c.Rows
			}
			socket := cols[0].IVPSM.MajoritySocket()
			region(cols[0], 0, socket)
			r := s.scanAll(k, env, cols, jitterMatches(env, rows, s.Selectivity))
			s.tasks = append(s.tasks, Task{Socket: socket, Run: r})
			matches(r.matches)
		} else {
			s.reserve(len(cols))
			for part, col := range cols {
				switch {
				case useIndex:
					// Index lookups on a replicated column chase the replica
					// with the most MC headroom; otherwise the IX's own socket.
					socket := IndexSocket(col)
					if col.Replicated() {
						socket = leastLoadedSocket(col.ReplicaSockets, mc.forColumn(col))
					}
					region(col, part, socket)
					m := jitterMatches(env, col.Rows, s.Selectivity)
					stream(findStream{col: col, socket: socket, accesses: float64(m)*env.Costs.IndexAccessesPerMatch + 16}, m)
				case !s.Parallel:
					// Single task spanning everything; region socket is the IV
					// majority socket — except for a replicated column, where
					// any replica serves the whole scan locally: the task goes
					// to the replica socket with the most MC headroom (the
					// Figure 10 single-task remote-access penalty is exactly
					// what replication removes).
					socket := col.IVPSM.MajoritySocket()
					if col.Replicated() {
						socket = leastLoadedSocket(col.ReplicaSockets, mc.forColumn(col))
					}
					region(col, part, socket)
					stream(findStream{col: col, to: col.Rows, socket: socket}, jitterMatches(env, col.Rows, s.Selectivity))
				default:
					// The parts share the hint; each of a part's scheduling
					// partitions (IVP partitions, or replica slices weighted
					// by MC load) gets a region and whole tasks.
					hint := p.Hint()
					if s.Table.NumParts() > 1 {
						hint = max(hint/s.Table.NumParts(), 1)
					}
					// PlanSpans, into the stack buffer when the spans fit and
					// into the operator's storage otherwise. The stack buffer
					// never flows into s.spans, or it would escape.
					parts, per, n := spanParts(partBuf[:0], col, mc.forColumn(col), hint)
					spans := spanBuf[:0]
					if n > len(spanBuf) {
						s.spans = emptied(s.spans, n)
						spans = s.spans
					}
					spans = fillSpans(spans, parts, per)
					s.reserve(len(spans))
					for k, sp := range spans {
						if k == 0 || sp.Part != spans[k-1].Part {
							region(col, part, sp.Socket)
						}
						stream(findStream{col: col, from: sp.From, to: sp.To, socket: sp.Socket},
							jitterMatches(env, sp.To-sp.From, s.Selectivity))
					}
				}
			}
		}
		// Union the watermark-visible delta rows: one task per non-empty
		// fragment, with the analytic match count.
		for i, col := range cols {
			frags := visibleDelta(fragBuf[:0], col)
			s.reserve(len(frags))
			for _, fr := range frags {
				region(col, i, fr.Socket)
				stream(findStream{col: col, to: fr.To, socket: fr.Socket, delta: true}, expectedMatches(fr.To, s.Selectivity))
			}
		}
	}

	plan(0)
	track = false
	for k := 1; k < s.predicates(); k++ {
		plan(k)
	}
	return s.tasks
}

// Close applies the conjunctive extra-predicate intersection at the find
// barrier: every region's matches scale by selectivity once per extra
// predicate column.
func (s *ScanOp) Close(*Pipeline) {
	if k := s.predicates() - 1; k > 0 {
		factor := math.Pow(s.Selectivity, float64(k))
		for i := range s.regions {
			s.regions[i].Matches = int(float64(s.regions[i].Matches)*factor + 0.5)
		}
	}
}

// scanAll is the record of one unparallelized scan across every physical
// part: the single worker streams each part's IV in turn, reaching remote
// sockets for the parts that are not local (Figure 10's "single task has to
// access remotely the sockets of the remaining partitions"). The match output
// is written with the last part. next is step, bound when the record is made.
type scanAll struct {
	env     *Env
	sel     float64
	cols    []*colstore.Column
	matches int
	w       *sched.Worker
	done    func()
	part    int
	next    func()
}

// scanAll returns predicate k's scan-all record, set up to scan cols.
func (s *ScanOp) scanAll(k int, env *Env, cols []*colstore.Column, matches int) *scanAll {
	if k == len(s.alls) {
		r := &scanAll{}
		r.next = r.step
		s.alls = append(s.alls, r)
	}
	r := s.alls[k]
	r.env, r.sel, r.cols, r.matches = env, s.Selectivity, cols, matches
	return r
}

// Run implements sched.Runner.
func (r *scanAll) Run(w *sched.Worker, done func()) {
	r.w, r.done, r.part = w, done, 0
	r.step()
}

func (r *scanAll) step() {
	if r.part == len(r.cols) {
		done := r.done
		r.w, r.done = nil, nil
		done()
		return
	}
	col, m := r.cols[r.part], 0
	if r.part == len(r.cols)-1 {
		m = r.matches
	}
	r.part++
	fs := findStream{col: col, to: col.Rows, n: 1, outBytes: resultBytes(r.env, r.sel, m, col.Rows)}
	fs.runIV(r.env, r.w, r.next)
}

// ---- the find-phase model shared by ScanOp, SharedScanOp and WrapScanOp -----

// jitterMatches derives a deterministic approximate match count for a row
// range at selectivity sel: the analytic expectation of the uniform data
// generator with a small per-task jitter, standing in for actually running
// the scan kernel (the kernels themselves are implemented and tested in
// package colstore; the harness uses the analytic count so experiments over
// hundreds of thousands of queries stay tractable). It draws once from
// Env.Rand per call.
func jitterMatches(env *Env, rows int, sel float64) int {
	exp := sel * float64(rows)
	f := 0.95 + 0.1*env.Rand.Float64()
	m := int(exp*f + 0.5)
	if m > rows {
		m = rows
	}
	return m
}

// expectedMatches is the analytic match count of rows at selectivity sel,
// without jitter. Delta tasks use it: they must not draw, so the read-only
// RNG stream stays untouched when no writes were ever issued.
func expectedMatches(rows int, sel float64) int {
	return int(sel*float64(rows) + 0.5)
}

// resultBytes returns one member's find-result output bytes under the
// Section 5.2 result formats: a position list (4 bytes per match) at low
// selectivity, a bitvector (one bit per scanned row) at high selectivity —
// whichever is smaller at the configured threshold.
func resultBytes(env *Env, sel float64, matches, rows int) float64 {
	if sel >= env.Costs.BitvectorSelectivity {
		return float64(rows) / 8
	}
	return float64(matches) * 4
}

// visibleDelta returns, in buf's storage, one range per non-empty
// watermark-visible delta fragment of col: rows [0, To) of the fragment on
// Socket. A column that was never written has a nil Delta and returns none,
// so the read-only path is bit-identical to a delta-free build.
func visibleDelta(buf []RowRange, col *colstore.Column) []RowRange {
	out := buf[:0]
	if col.Delta == nil {
		return out
	}
	var rowBuf [32]int // a fragment per socket of the largest modelled machine
	for sock, rows := range col.Delta.RowsInto(rowBuf[:0]) {
		if rows > 0 {
			out = append(out, RowRange{To: rows, Socket: sock})
		}
	}
	return out
}

// findStream is one planned find-phase task that reads column data once and
// evaluates n member predicates on it: n = 1 for a private scan, the cohort
// size for a shared pass or its wrap.
type findStream struct {
	env *Env
	col *colstore.Column
	// from and to bound the IV rows of the stream; a delta stream reads
	// to-from uncompressed rows of the fragment on socket.
	from, to int
	socket   int // the data socket the task is placed by
	delta    bool
	n        int
	// outBytes are every member's result bytes, fixed at plan time.
	outBytes float64
	// pass, when set, is the cohort pass whose progress the stream reports.
	pass *SharedScanOp
	// wrap charges the stream as a cohort's wrap-around re-stream.
	wrap bool
	// accesses, when non-zero, makes the task that many dependent random
	// accesses into col's IX instead (on the best replica, if replicated).
	accesses float64
}

// findTasks is a find-phase operator's task storage, refilled by each Open;
// reserving room keeps emit from moving records earlier tasks point to.
type findTasks struct {
	streams []findStream
	tasks   []Task
}

func (ft *findTasks) reset(n int) {
	ft.streams, ft.tasks = emptied(ft.streams, n), emptied(ft.tasks, n)
}

func (ft *findTasks) reserve(n int) {
	ft.streams, ft.tasks = slices.Grow(ft.streams, n), slices.Grow(ft.tasks, n)
}

// emit appends the stream, run by env, as the next task.
func (ft *findTasks) emit(env *Env, fs findStream) {
	fs.env = env
	ft.streams = append(ft.streams, fs)
	ft.tasks = append(ft.tasks, Task{Socket: fs.socket, Run: &ft.streams[len(ft.streams)-1]})
}

// Run implements sched.Runner.
func (fs *findStream) Run(w *sched.Worker, done func()) {
	env := fs.env
	switch {
	case fs.accesses > 0:
		env.runChain(env.randomFlow(indexFlow, w, fs.col, fs.col.IXPSM, fs.accesses,
			env.Costs.IdxCyclesPerAccess, 4, env.Costs.IdxMissRate), done)
	case fs.delta:
		fs.runDelta(env, w, done)
	default:
		fs.runIV(env, w, done)
	}
}

// runIV streams the IV bytes of rows [from,to) once, from wherever they
// physically live — one chained flow per serving socket; a replicated column
// is read from the replica with the most MC headroom — burning n predicate
// evaluations per byte and writing the result bytes alongside.
func (fs *findStream) runIV(env *Env, w *sched.Worker, onDone func()) {
	kind := scanFlow
	if fs.wrap {
		kind = wrapFlow
	}
	var buf [psm.MaxSockets]int64
	perSocket, ivBytes := ivSocketBytes(env, fs.col, w.Socket(), fs.from, fs.to, buf[:])
	outPerByte := fs.outBytes / float64(ivBytes+1)
	var head *flowRec
	link := &head // where the chain's next record goes
	for dst, bytes := range perSocket {
		if bytes == 0 {
			continue
		}
		r := env.streamFlow(kind, w, dst, env.Costs.SharedScanCyclesPerByte(fs.n), float64(bytes))
		r.writeOutput(outPerByte)
		r.item, r.n, r.pass = fs.col, fs.n, fs.pass
		*link, link = r, &r.next
	}
	env.runChain(head, onDone)
}

// runDelta streams the fragment's watermark-visible uncompressed rows
// (RowBytes each — several times the main's bit-packed bytes per row, which
// is why scans degrade as the delta grows) once from the fragment's own
// socket, burning the uncompressed-predicate compute for n members, plus
// the result write.
func (fs *findStream) runDelta(env *Env, w *sched.Worker, onDone func()) {
	kind := deltaFlow
	if fs.wrap {
		kind = wrapFlow
	}
	bytes := float64(fs.to-fs.from) * delta.RowBytes
	r := env.streamFlow(kind, w, fs.socket, env.Costs.SharedDeltaCyclesPerByte(fs.n), bytes)
	r.writeOutput(fs.outBytes / (bytes + 1))
	r.item, r.n = fs.col, fs.n
	env.runChain(r, onDone)
}
