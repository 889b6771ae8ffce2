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

// jitterMatches derives a deterministic approximate match count for a row
// range: the analytic expectation of the uniform data generator with a small
// per-task jitter, standing in for actually running the scan kernel (the
// kernels themselves are implemented and tested in package colstore; the
// harness uses the analytic count so experiments over hundreds of thousands
// of queries stay tractable).
func (s *ScanOp) jitterMatches(env *Env, rows int) int {
	exp := s.Selectivity * float64(rows)
	f := 0.95 + 0.1*env.Rand.Float64()
	m := int(exp*f + 0.5)
	if m > rows {
		m = rows
	}
	return m
}

// scanTask is one planned find-phase task.
type scanTask struct {
	col     *colstore.Column
	rowFrom int
	rowTo   int
	region  int // -1 for extra predicate columns
	// socket is the data socket resolved at plan time (replica-aware), kept
	// on the task so replica slices and extra-predicate tasks retain their
	// placement even when no region is tracked.
	socket    int
	indexTask bool
	// allCols, when set, makes this a single unparallelized task that scans
	// every physical part sequentially — with parallelism disabled, one task
	// must access the remote sockets of the other parts itself (the Figure 10
	// effect).
	allCols []*colstore.Column
	// deltaFrag, when set, makes this a delta-fragment scan: deltaRows
	// watermark-visible uncompressed rows streamed from the fragment's own
	// socket, unioned with the main scan at the find barrier. deltaMatches
	// is the analytic match count (no jitter: the read-only RNG stream must
	// stay untouched when no writes were ever issued).
	deltaFrag    *delta.Fragment
	deltaRows    int
	deltaMatches int
}

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
// (Section 6's multi-predicate discussion).
func (s *ScanOp) Open(p *Pipeline) []Task {
	env := p.Env
	s.regions = s.regions[:0] // support operator reuse across pipelines
	// Every replica-socket decision of this statement sees one MC-load
	// snapshot, taken lazily by the first replicated column that needs it.
	mc := mcSnapshot{env: env}
	var primaryBuf, extraBuf [4]*colstore.Column
	primary := s.columns(s.Column, primaryBuf[:])
	useIndex := IndexEligible(env.Costs, s.Table, s.Column, s.Selectivity, s.UseIndex)

	var tasks []scanTask
	// Fan-out scratch, reused across parts and predicate columns.
	var partBuf [4]RowRange
	var spanBuf [16][2]int
	parts, spans := partBuf[:0], spanBuf[:0]
	// plan emits the find tasks of one predicate column, resolved per part.
	plan := func(cols []*colstore.Column, trackRegions bool) {
		if !s.Parallel && !useIndex && len(cols) > 1 {
			rows := 0
			for _, c := range cols {
				rows += c.Rows
			}
			socket := cols[0].IVPSM.MajoritySocket()
			region := -1
			if trackRegions {
				region = len(s.regions)
				s.regions = append(s.regions, Region{
					Col: cols[0], Part: s.Table.Parts[0], Socket: socket,
				})
			}
			tasks = append(tasks, scanTask{col: cols[0], rowFrom: 0, rowTo: rows, region: region, socket: socket, allCols: slices.Clone(cols)})
			return
		}
		for i, col := range cols {
			part := s.Table.Parts[i]
			if useIndex {
				// Index lookups on a replicated column chase the replica with
				// the most MC headroom; otherwise the IX's own socket.
				socket := IndexSocket(col)
				if col.Replicated() {
					socket = leastLoadedSocket(col.ReplicaSockets, mc.forColumn(col))
				}
				region := -1
				if trackRegions {
					region = len(s.regions)
					s.regions = append(s.regions, Region{Col: col, Part: part, Socket: socket})
				}
				tasks = append(tasks, scanTask{col: col, rowFrom: 0, rowTo: col.Rows, region: region, socket: socket, indexTask: true})
				continue
			}
			if !s.Parallel {
				// Single task spanning everything; region socket is the IV
				// majority socket — except for a replicated column, where any
				// replica serves the whole scan locally: the task goes to the
				// replica socket with the most MC headroom (the Figure 10
				// single-task remote-access penalty is exactly what
				// replication removes).
				socket := col.IVPSM.MajoritySocket()
				if col.Replicated() {
					socket = leastLoadedSocket(col.ReplicaSockets, mc.forColumn(col))
				}
				region := -1
				if trackRegions {
					region = len(s.regions)
					s.regions = append(s.regions, Region{Col: col, Part: part, Socket: socket})
				}
				tasks = append(tasks, scanTask{col: col, rowFrom: 0, rowTo: col.Rows, region: region, socket: socket})
				continue
			}
			// Tasks per partition: the concurrency hint rounded up to a
			// multiple of the scheduling partitions (IVP partitions, or
			// replicas for a replicated column) so each task's range lies
			// wholly in one partition. Replica slices are weighted by current
			// MC utilization so loaded sockets receive less of the fan-out.
			hint := p.Hint()
			if s.Table.NumParts() > 1 {
				hint = hint / s.Table.NumParts()
				if hint < 1 {
					hint = 1
				}
			}
			parts = PartitionsWeighted(parts, col, mc.forColumn(col))
			per := TasksPerPartition(hint, len(parts))
			for _, pr := range parts {
				region := -1
				if trackRegions {
					region = len(s.regions)
					s.regions = append(s.regions, Region{Col: col, Part: part, Socket: pr.Socket})
				}
				spans = SplitRows(spans, pr.From, pr.To, per)
				for _, span := range spans {
					tasks = append(tasks, scanTask{col: col, rowFrom: span[0], rowTo: span[1], region: region, socket: pr.Socket})
				}
			}
		}
	}
	// planDelta unions the column's watermark-visible delta rows into the
	// find phase: one task per non-empty per-socket fragment, streaming
	// uncompressed rows from the fragment's own socket. A column that was
	// never written has a nil Delta and plans nothing — the read-only path
	// is bit-identical to a delta-free build.
	planDelta := func(cols []*colstore.Column, trackRegions bool) {
		for i, col := range cols {
			if col.Delta == nil {
				continue
			}
			part := s.Table.Parts[i]
			snap := col.Delta.Snapshot()
			for sock := 0; sock < col.Delta.Sockets(); sock++ {
				rows := snap.Rows[sock]
				if rows == 0 {
					continue
				}
				frag := col.Delta.Fragment(sock)
				m := int(s.Selectivity*float64(rows) + 0.5)
				region := -1
				if trackRegions {
					region = len(s.regions)
					s.regions = append(s.regions, Region{Col: col, Part: part, Socket: sock})
				}
				tasks = append(tasks, scanTask{
					col: col, region: region, socket: sock,
					deltaFrag: frag, deltaRows: rows, deltaMatches: m,
				})
			}
		}
	}

	plan(primary, true)
	planDelta(primary, true)
	for _, extra := range s.ExtraPredicateColumns {
		cols := s.columns(extra, extraBuf[:])
		plan(cols, false)
		planDelta(cols, false)
	}

	out := make([]Task, 0, len(tasks))
	for _, st := range tasks {
		st := st
		var m int
		if st.deltaFrag != nil {
			m = st.deltaMatches
		} else {
			m = s.jitterMatches(env, st.rowTo-st.rowFrom)
		}
		if st.region >= 0 {
			s.regions[st.region].Matches += m
		}
		// The data socket was resolved at plan time (replica-aware); tracked
		// regions carry the same socket for the downstream output phase.
		socket := st.socket
		run := func(w *sched.Worker, done func()) {
			s.runScan(env, w, st.col, st.rowFrom, st.rowTo, m, done)
		}
		if st.allCols != nil {
			run = func(w *sched.Worker, done func()) {
				s.runScanAll(env, w, st.allCols, m, done)
			}
		}
		if st.deltaFrag != nil {
			run = func(w *sched.Worker, done func()) {
				s.runDeltaScan(env, w, st.col, st.deltaFrag, st.deltaRows, m, done)
			}
		}
		if st.indexTask {
			run = func(w *sched.Worker, done func()) {
				s.runIndexLookup(env, w, st.col, m, done)
			}
		}
		out = append(out, Task{Socket: socket, Run: run})
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

// runScanAll executes one unparallelized scan across every physical part:
// the single worker streams each part's IV in turn, reaching remote sockets
// for the parts that are not local (Figure 10's "single task has to access
// remotely the sockets of the remaining partitions").
func (s *ScanOp) runScanAll(env *Env, w *sched.Worker, cols []*colstore.Column, matches int, onDone func()) {
	remaining := len(cols)
	oneDone := func() {
		remaining--
		if remaining == 0 {
			onDone()
		}
	}
	// Sequential execution: chain per-part scans.
	var start func(i int)
	start = func(i int) {
		if i >= len(cols) {
			return
		}
		m := 0
		if i == len(cols)-1 {
			m = matches // output writes attributed once
		}
		s.runScan(env, w, cols[i], 0, cols[i].Rows, m, func() {
			oneDone()
			start(i + 1)
		})
	}
	start(0)
}

// runScan executes one scan task: stream the IV bytes of rows [from,to)
// from wherever they physically live, plus the (small) match output write.
func (s *ScanOp) runScan(env *Env, w *sched.Worker, col *colstore.Column, from, to, matches int, onDone func()) {
	// A replicated column streams from the replica with the most MC headroom
	// (the nearest one when the machine is idle) instead of the primary copy.
	var buf [psm.MaxSockets]int64
	perSocket, ivBytes := ivSocketBytes(env, col, w.Socket(), from, to, buf[:])
	// Sequential flows, one per distinct source socket of the range.
	// The match output uses the Section 5.2 result formats: a position list
	// (4 bytes per match) at low selectivity, a bitvector (one bit per
	// scanned row) at high selectivity — whichever is smaller at the
	// configured threshold.
	outBytes := float64(matches) * 4
	if s.Selectivity >= env.Costs.BitvectorSelectivity {
		outBytes = float64(to-from) / 8
	}
	outPerByte := outBytes / float64(ivBytes+1)
	var head *flowRec
	link := &head // where the chain's next record goes
	for dst, bytes := range perSocket {
		if bytes == 0 {
			continue
		}
		r := env.streamFlow(scanFlow, w, dst, env.Costs.ScanCyclesPerByte, float64(bytes))
		r.writeOutput(outPerByte)
		r.item = col.Name
		*link, link = r, &r.next
	}
	env.runChain(head, onDone)
}

// runDeltaScan executes one delta-fragment scan task: stream the fragment's
// watermark-visible uncompressed rows (RowBytes each — several times the
// main's bit-packed bytes per row, which is why scans degrade as the delta
// grows) from the fragment's own socket, burning the uncompressed-predicate
// compute, plus the match output write.
func (s *ScanOp) runDeltaScan(env *Env, w *sched.Worker, col *colstore.Column, frag *delta.Fragment, rows, matches int, onDone func()) {
	bytes := float64(rows) * delta.RowBytes
	outBytes := float64(matches) * 4
	if s.Selectivity >= env.Costs.BitvectorSelectivity {
		outBytes = float64(rows) / 8
	}
	r := env.streamFlow(deltaFlow, w, frag.Socket, env.Costs.DeltaScanCyclesPerByte, bytes)
	r.writeOutput(outBytes / (bytes + 1))
	r.item = col.Name
	env.runChain(r, onDone)
}

// runIndexLookup executes one (unparallelized) index-lookup task: dependent
// random accesses into the IX.
func (s *ScanOp) runIndexLookup(env *Env, w *sched.Worker, col *colstore.Column, matches int, onDone func()) {
	// A replicated index is chased on the replica with the most MC headroom.
	accesses := float64(matches)*env.Costs.IndexAccessesPerMatch + 16
	env.runChain(env.randomFlow(indexFlow, w, col, col.IXPSM, accesses,
		env.Costs.IdxCyclesPerAccess, 4, env.Costs.IdxMissRate), onDone)
}
