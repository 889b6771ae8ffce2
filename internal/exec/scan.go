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
	Column      string
	Selectivity float64

	// ExtraPredicateColumns adds conjunctive range predicates on further
	// columns: the find phase is repeated, in parallel, for each predicate
	// column, and the qualifying set is their intersection (the paper
	// discusses this generalization in Section 6). Each extra predicate uses
	// the same Selectivity.
	ExtraPredicateColumns []string
	// UseIndex permits index lookups when the column has an index and the
	// optimizer's selectivity threshold admits them.
	UseIndex bool
	// Parallel enables intra-operator parallelism.
	Parallel bool

	regions []Region
}

// Regions implements RegionSource: the per-partition match counts, with the
// conjunctive extra-predicate intersection already applied.
func (s *ScanOp) Regions() []Region { return s.regions }

// IndexEligible is the single source of truth for the index-vs-scan decision:
// the statement permits index use, the selectivity clears the cost model's
// threshold, and the column actually carries an index. ScanOp.Open applies it
// at execution time and the planner mirrors it as a physical-plan annotation,
// so EXPLAIN output and execution can never disagree.
func IndexEligible(costs *Costs, table *colstore.Table, column string, selectivity float64, useIndex bool) bool {
	if !useIndex || selectivity > costs.IndexSelectivityThreshold {
		return false
	}
	c := table.Parts[0].ColumnByName(column)
	return c != nil && c.Idx != nil
}

// columns resolves a predicate column in every part, in part order, into
// buf's storage.
func (s *ScanOp) columns(name string, buf []*colstore.Column) []*colstore.Column {
	cols := buf[:0]
	for _, part := range s.Table.Parts {
		c := part.ColumnByName(name)
		if c == nil {
			panic(fmt.Sprintf("exec: no column %s", name))
		}
		cols = append(cols, c)
	}
	return cols
}

// Open plans and emits the find tasks. Only the primary predicate column
// tracks regions (the materialization input); additional predicate columns
// run the same find phase in parallel and merely intersect the result
// (Section 6's multi-predicate discussion). Each task draws its matches as it
// is planned, in task order.
func (s *ScanOp) Open(p *Pipeline) []Task {
	env := p.Env
	s.regions = s.regions[:0] // support operator reuse across pipelines
	// Every replica-socket decision of this statement sees one MC-load
	// snapshot, taken lazily by the first replicated column that needs it.
	mc := mcSnapshot{env: env}
	useIndex := IndexEligible(env.Costs, s.Table, s.Column, s.Selectivity, s.UseIndex)
	var colBuf [4]*colstore.Column
	var spanBuf [16]KernelSpan
	var fragBuf [4]RowRange
	var out []Task
	track := true
	// region opens a tracked region; emit appends a task whose m matches
	// join the region opened last.
	region := func(col *colstore.Column, part *colstore.Part, socket int) {
		if track {
			s.regions = append(s.regions, Region{Col: col, Part: part, Socket: socket})
		}
	}
	emit := func(t Task, m int) {
		if track {
			s.regions[len(s.regions)-1].Matches += m
		}
		out = append(out, t)
	}
	// stream emits a private find stream of rows [from,to).
	stream := func(fs findStream, m int) {
		fs.n, fs.outBytes = 1, resultBytes(env, s.Selectivity, m, fs.to-fs.from)
		emit(fs.task(env), m)
	}
	// plan emits the find tasks of one predicate column, resolved per part.
	plan := func(name string) {
		cols := s.columns(name, colBuf[:])
		if !s.Parallel && !useIndex && len(cols) > 1 {
			rows := 0
			for _, c := range cols {
				rows += c.Rows
			}
			socket := cols[0].IVPSM.MajoritySocket()
			region(cols[0], s.Table.Parts[0], socket)
			m := jitterMatches(env, rows, s.Selectivity)
			emit(s.scanAllTask(env, slices.Clone(cols), m, socket), m)
		} else {
			for i, col := range cols {
				part := s.Table.Parts[i]
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
					emit(indexTask(env, col, m, socket), m)
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
					spans := PlanSpans(spanBuf[:0], col, mc.forColumn(col), hint)
					out = slices.Grow(out, len(spans))
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
			for _, fr := range visibleDelta(fragBuf[:0], col) {
				region(col, s.Table.Parts[i], fr.Socket)
				stream(findStream{col: col, to: fr.To, socket: fr.Socket, delta: true}, expectedMatches(fr.To, s.Selectivity))
			}
		}
	}

	plan(s.Column)
	track = false
	for _, extra := range s.ExtraPredicateColumns {
		plan(extra)
	}
	return out
}

// Close applies the conjunctive extra-predicate intersection at the find
// barrier: every region's matches scale by selectivity once per extra
// predicate column.
func (s *ScanOp) Close(*Pipeline) {
	if k := len(s.ExtraPredicateColumns); k > 0 {
		factor := math.Pow(s.Selectivity, float64(k))
		for i := range s.regions {
			s.regions[i].Matches = int(float64(s.regions[i].Matches)*factor + 0.5)
		}
	}
}

// scanAllTask is one unparallelized scan across every physical part: the
// single worker streams each part's IV in turn, reaching remote sockets for
// the parts that are not local (Figure 10's "single task has to access
// remotely the sockets of the remaining partitions"). The match output is
// written with the last part.
func (s *ScanOp) scanAllTask(env *Env, cols []*colstore.Column, matches, socket int) Task {
	return Task{Socket: socket, Run: func(w *sched.Worker, done func()) {
		var next func(i int)
		next = func(i int) {
			if i == len(cols) {
				done()
				return
			}
			col, m := cols[i], 0
			if i == len(cols)-1 {
				m = matches
			}
			fs := findStream{col: col, to: col.Rows, n: 1, outBytes: resultBytes(env, s.Selectivity, m, col.Rows)}
			fs.runIV(env, w, func() { next(i + 1) })
		}
		next(0)
	}}
}

// indexTask is one (unparallelized) index-lookup task: dependent random
// accesses into the IX, on the replica with the most MC headroom for a
// replicated index.
func indexTask(env *Env, col *colstore.Column, matches, socket int) Task {
	accesses := float64(matches)*env.Costs.IndexAccessesPerMatch + 16
	return Task{Socket: socket, Run: func(w *sched.Worker, done func()) {
		env.runChain(env.randomFlow(indexFlow, w, col, col.IXPSM, accesses,
			env.Costs.IdxCyclesPerAccess, 4, env.Costs.IdxMissRate), done)
	}}
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
	snap := col.Delta.Snapshot()
	for sock, rows := range snap.Rows {
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
}

// task wraps the stream as a schedulable task.
func (fs findStream) task(env *Env) Task {
	return Task{Socket: fs.socket, Run: func(w *sched.Worker, done func()) {
		if fs.delta {
			fs.runDelta(env, w, done)
		} else {
			fs.runIV(env, w, done)
		}
	}}
}

// runIV streams the IV bytes of rows [from,to) once, from wherever they
// physically live — one chained flow per serving socket; a replicated column
// is read from the replica with the most MC headroom — burning n predicate
// evaluations per byte and writing the result bytes alongside.
func (fs findStream) runIV(env *Env, w *sched.Worker, onDone func()) {
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
		r.item, r.n, r.pass = fs.col.Name, fs.n, fs.pass
		*link, link = r, &r.next
	}
	env.runChain(head, onDone)
}

// runDelta streams the fragment's watermark-visible uncompressed rows
// (RowBytes each — several times the main's bit-packed bytes per row, which
// is why scans degrade as the delta grows) once from the fragment's own
// socket, burning the uncompressed-predicate compute for n members, plus
// the result write.
func (fs findStream) runDelta(env *Env, w *sched.Worker, onDone func()) {
	kind := deltaFlow
	if fs.wrap {
		kind = wrapFlow
	}
	bytes := float64(fs.to-fs.from) * delta.RowBytes
	r := env.streamFlow(kind, w, fs.socket, env.Costs.SharedDeltaCyclesPerByte(fs.n), bytes)
	r.writeOutput(fs.outBytes / (bytes + 1))
	r.item, r.n = fs.col.Name, fs.n
	env.runChain(r, onDone)
}
