package exec

// Shared-scan operators: the find phase of a scan cohort. A cohort batches N
// concurrent range-predicate scans of the same column into ONE physical pass
// over the indexvector — the memory traversal is paid once, each chunk is
// evaluated against all member predicates (Crescando / SAP HANA-style scan
// sharing), and every member keeps its own logical result regions for its
// private output phase. The accounting rule mirrors the write-path merge
// precedent: physical counters (MC bytes, link traffic, LLC lines) are
// charged once per pass, while per-item traffic is attributed once per
// member so the adaptive placer's read-heat signal still sees N logical
// scans. With a single member the pass plans the identical tasks, draws the
// identical RNG stream, and starts the identical flows as ScanOp — the
// uncontended bypass guarantee, pinned by the harness golden test.

import (
	"fmt"

	"numacs/internal/colstore"
	"numacs/internal/delta"
	"numacs/internal/psm"
	"numacs/internal/sched"
	"numacs/internal/sim"
)

// SharedPred is one member predicate of a shared scan pass.
type SharedPred struct {
	// Selectivity of the member's range predicate; it drives the member's
	// analytic match counts and its result-format (position list vs
	// bitvector) output bytes.
	Selectivity float64
}

// sharedTask is one planned task of a shared find pass.
type sharedTask struct {
	col     *colstore.Column
	rowFrom int
	rowTo   int
	region  int
	socket  int
	// deltaFrag marks a delta-fragment task (rows streamed uncompressed from
	// the fragment's socket); matches are analytic per member, like ScanOp.
	deltaFrag bool
	deltaRows int
}

// SharedScanOp is the find phase of a scan cohort: one physical pass over
// the column that evaluates every member predicate per chunk. It implements
// Operator (the pass itself) and RegionSource (the leader's — member 0's —
// regions); followers consume their regions via MemberRegions.
type SharedScanOp struct {
	// Table and Column name the scanned data (every member shares them).
	Table  *colstore.Table
	Column string
	// Preds holds one predicate per cohort member, leader first.
	Preds []SharedPred
	// FanoutCap is the members' summed admission fan-out caps (0 when any
	// member was admitted uncapped); it bounds the pass's task budget.
	FanoutCap int
	// OnClosed fires at the find barrier, after every member's regions are
	// final — the cohort registry's hook to start follower statements and
	// the attachers' wrap pass.
	OnClosed func()

	regions    [][]Region // per member, parallel layouts
	bytesTotal float64    // planned main-pass IV bytes
	bytesDone  float64    // streamed so far (attach-progress signal)
}

// Regions implements RegionSource for the leader (member 0).
func (s *SharedScanOp) Regions() []Region { return s.MemberRegions(0) }

// MemberRegions returns member i's find-phase regions: the same partition
// layout for every member, with the member's own match counts.
func (s *SharedScanOp) MemberRegions(i int) []Region { return s.regions[i] }

// Fraction reports the pass's streamed fraction of its planned IV bytes —
// the progress signal the registry's mid-flight attach policy keys on.
func (s *SharedScanOp) Fraction() float64 {
	if s.bytesTotal <= 0 {
		return 0
	}
	f := s.bytesDone / s.bytesTotal
	if f > 1 {
		f = 1
	}
	return f
}

// sharedJitter is ScanOp's analytic match model with the selectivity as a
// parameter: expectation with a small deterministic per-task jitter. Draw
// order is per task, then per member (leader first), so a single-member pass
// consumes the identical RNG stream as ScanOp.
func sharedJitter(env *Env, rows int, sel float64) int {
	exp := sel * float64(rows)
	f := 0.95 + 0.1*env.Rand.Float64()
	m := int(exp*f + 0.5)
	if m > rows {
		m = rows
	}
	return m
}

// cohortBudget scales a per-statement task budget to the cohort: the pass
// replaces n statements, so it inherits n concurrency-hint shares, bounded
// by the machine's hardware contexts and by cap — the members' summed
// admission fan-out caps (0 when any member was admitted uncapped), so the
// elastic controller's granularity lever still binds on shared passes.
func cohortBudget(p *Pipeline, n, cap int) int {
	h := p.Env.hint() * n
	if t := p.Env.Machine.TotalThreads(); h > t {
		h = t
	}
	if cap > 0 && cap < h {
		h = cap
	}
	if h < 1 {
		h = 1
	}
	return h
}

// Open plans the shared find pass: the same partition fan-out as ScanOp's
// parallel branch, with the whole predicate set carried by every task and
// per-member match counts drawn per task.
func (s *SharedScanOp) Open(p *Pipeline) []Task {
	env := p.Env
	n := len(s.Preds)
	s.regions = make([][]Region, n)
	s.bytesTotal, s.bytesDone = 0, 0
	mc := mcSnapshot{env: env}
	var tasks []sharedTask
	for _, part := range s.Table.Parts {
		col := part.ColumnByName(s.Column)
		if col == nil {
			panic(fmt.Sprintf("exec: no column %s", s.Column))
		}
		hint := cohortBudget(p, n, s.FanoutCap)
		if s.Table.NumParts() > 1 {
			hint = hint / s.Table.NumParts()
			if hint < 1 {
				hint = 1
			}
		}
		parts := PartitionsWeighted(col, mc.forColumn(col))
		per := TasksPerPartition(hint, len(parts))
		for _, pr := range parts {
			region := len(s.regions[0])
			for i := range s.regions {
				s.regions[i] = append(s.regions[i], Region{Col: col, Part: part, Socket: pr.Socket})
			}
			for _, span := range SplitRows(pr.From, pr.To, per) {
				tasks = append(tasks, sharedTask{col: col, rowFrom: span[0], rowTo: span[1], region: region, socket: pr.Socket})
			}
		}
		// Delta union, once per cohort: one task per non-empty per-socket
		// fragment, with per-member analytic match counts (no RNG, mirroring
		// ScanOp's delta planning).
		if col.Delta != nil {
			snap := col.Delta.Snapshot()
			for sock := 0; sock < col.Delta.Sockets(); sock++ {
				rows := snap.Rows[sock]
				if rows == 0 {
					continue
				}
				region := len(s.regions[0])
				for i := range s.regions {
					s.regions[i] = append(s.regions[i], Region{Col: col, Part: part, Socket: sock})
				}
				tasks = append(tasks, sharedTask{col: col, region: region, socket: sock, deltaFrag: true, deltaRows: rows})
			}
		}
	}

	out := make([]Task, 0, len(tasks))
	for _, st := range tasks {
		st := st
		matches := make([]int, n)
		for i, pred := range s.Preds {
			if st.deltaFrag {
				matches[i] = int(pred.Selectivity*float64(st.deltaRows) + 0.5)
			} else {
				matches[i] = sharedJitter(env, st.rowTo-st.rowFrom, pred.Selectivity)
			}
			s.regions[i][st.region].Matches += matches[i]
		}
		if !st.deltaFrag {
			s.bytesTotal += float64(st.col.IVBytesForRows(st.rowFrom, st.rowTo))
		}
		run := func(w *sched.Worker, done func()) {
			s.runShared(env, w, st.col, st.rowFrom, st.rowTo, matches, done)
		}
		if st.deltaFrag {
			run = func(w *sched.Worker, done func()) {
				s.runSharedDelta(env, w, st.col, st.socket, st.deltaRows, matches, done)
			}
		}
		out = append(out, Task{Socket: st.socket, Run: run})
	}
	return out
}

// Close fires the cohort hook at the find barrier.
func (s *SharedScanOp) Close(*Pipeline) {
	if s.OnClosed != nil {
		s.OnClosed()
	}
}

// memberOutBytes returns the member's find-result output bytes under the
// Section 5.2 result formats: a position list (4 bytes per match) at low
// selectivity, a bitvector (one bit per scanned row) at high selectivity.
func memberOutBytes(env *Env, sel float64, matches, rows int) float64 {
	if sel >= env.Costs.BitvectorSelectivity {
		return float64(rows) / 8
	}
	return float64(matches) * 4
}

// runShared executes one shared scan task: stream the IV bytes of rows
// [from,to) once, burn len(matches) predicate evaluations per byte, and
// write every member's match output. Physical traffic is charged once; item
// traffic is attributed once per member.
func (s *SharedScanOp) runShared(env *Env, w *sched.Worker, col *colstore.Column, from, to int, matches []int, onDone func()) {
	n := len(matches)
	src := w.Socket()
	var buf [psm.MaxSockets]int64
	perSocket, ivBytes := ivSocketBytes(env, col, src, from, to, buf[:])
	penalty := 1.0
	if !w.Bound {
		penalty = env.Costs.UnboundStreamPenalty
	}
	outBytes := 0.0
	for i, pred := range s.Preds {
		outBytes += memberOutBytes(env, pred.Selectivity, matches[i], to-from)
	}
	outPerByte := outBytes / float64(ivBytes+1)
	var flowBuf [4]*sim.Flow
	flows := flowBuf[:0]
	for dst, bytes := range perSocket {
		if bytes == 0 {
			continue
		}
		dst := dst
		demands, lt := env.HW.StreamDemands(src, dst, w.CoreRes, env.Costs.SharedScanCyclesPerByte(n))
		if outPerByte > 0 {
			demands = append(demands, sim.Demand{Resource: env.HW.MC[src], Weight: outPerByte})
		}
		fl := &sim.Flow{
			Remaining: float64(bytes),
			RateCap:   env.Machine.StreamRate(src, dst) * penalty,
			Demands:   demands,
			OnAdvance: func(p float64) {
				s.bytesDone += p
				env.Counters.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
				env.Counters.AddCompute(src, p*env.Costs.SharedScanInstrPerByte(n), 0)
				// One logical attribution per member; addItemTraffic is
				// linear, so one n-scaled call equals n unit calls.
				env.addItem(col.Name, dst, Traffic{Bytes: p * float64(n), IVBytes: p * float64(n)})
			},
		}
		flows = append(flows, fl)
	}
	RunFlows(env.Sim, flows, onDone)
}

// runSharedDelta executes one shared delta-fragment task: the fragment's
// uncompressed rows are streamed once from their own socket and evaluated
// against every member predicate.
func (s *SharedScanOp) runSharedDelta(env *Env, w *sched.Worker, col *colstore.Column, frag, rows int, matches []int, onDone func()) {
	n := len(matches)
	bytes := float64(rows) * delta.RowBytes
	src := w.Socket()
	penalty := 1.0
	if !w.Bound {
		penalty = env.Costs.UnboundStreamPenalty
	}
	outBytes := 0.0
	for i, pred := range s.Preds {
		outBytes += memberOutBytes(env, pred.Selectivity, matches[i], rows)
	}
	demands, lt := env.HW.StreamDemands(src, frag, w.CoreRes, env.Costs.SharedDeltaCyclesPerByte(n))
	if outBytes > 0 {
		demands = append(demands, sim.Demand{Resource: env.HW.MC[src], Weight: outBytes / (bytes + 1)})
	}
	env.Sim.StartFlow(&sim.Flow{
		Remaining: bytes,
		RateCap:   env.Machine.StreamRate(src, frag) * penalty,
		Demands:   demands,
		OnAdvance: func(p float64) {
			env.Counters.AddMemoryTraffic(src, frag, p, p*lt.Data, p*lt.Total)
			env.Counters.AddCompute(src, p*env.Costs.SharedScanInstrPerByte(n), 0)
			env.addItem(col.Name, frag, Traffic{Bytes: p * float64(n), DeltaBytes: p * float64(n)})
		},
		OnDone: onDone,
	})
}

// WrapScanOp is the ClockScan-style wrap-around pass of a cohort's
// mid-flight attachers: statements that attached while the main pass was at
// fraction f ride the remainder for free and then re-stream only the prefix
// they missed. The wrap streams Fraction of the column's IV (plus the delta
// fragments, whole) once for all attachers; each attacher's logical regions
// cover the full column.
type WrapScanOp struct {
	// Table and Column name the scanned data.
	Table  *colstore.Table
	Column string
	// Fraction is the prefix share of the row space to re-stream — the
	// largest fraction any attacher missed.
	Fraction float64
	// Preds holds one predicate per attacher, wrap leader first.
	Preds []SharedPred
	// FanoutCap is the attachers' summed admission fan-out caps (0 when any
	// attacher was admitted uncapped).
	FanoutCap int
	// OnClosed fires at the wrap barrier (regions final).
	OnClosed func()

	regions [][]Region
}

// Regions implements RegionSource for the wrap leader (attacher 0).
func (wr *WrapScanOp) Regions() []Region { return wr.MemberRegions(0) }

// MemberRegions returns attacher i's full-column find regions.
func (wr *WrapScanOp) MemberRegions(i int) []Region { return wr.regions[i] }

// Open plans the wrap tasks: the missed prefix of each scheduling partition,
// fanned out under the attachers' combined budget. Regions span the full
// column (ride + wrap); attachers' logical item traffic is attributed at the
// barrier (see Close), since their physical ride bytes were charged to the
// main pass.
func (wr *WrapScanOp) Open(p *Pipeline) []Task {
	env := p.Env
	n := len(wr.Preds)
	wr.regions = make([][]Region, n)
	mc := mcSnapshot{env: env}
	var out []Task
	for _, part := range wr.Table.Parts {
		col := part.ColumnByName(wr.Column)
		if col == nil {
			panic(fmt.Sprintf("exec: no column %s", wr.Column))
		}
		hint := cohortBudget(p, n, wr.FanoutCap)
		parts := PartitionsWeighted(col, mc.forColumn(col))
		per := TasksPerPartition(hint, len(parts))
		for _, pr := range parts {
			// Full-column logical regions, per attacher.
			for i, pred := range wr.Preds {
				wr.regions[i] = append(wr.regions[i], Region{
					Col: col, Part: part, Socket: pr.Socket,
					Matches: sharedJitter(env, pr.To-pr.From, pred.Selectivity),
				})
			}
			// Physical wrap tasks: the missed prefix of THIS partition —
			// the pass streams its partitions in parallel, so an attacher
			// at fraction f missed ~f of each slice (and, for a replicated
			// column, the wrap bytes must come from every replica socket,
			// not just the low-row slices).
			to := pr.From + int(wr.Fraction*float64(pr.To-pr.From)+0.5)
			if to > pr.To {
				to = pr.To
			}
			if to <= pr.From {
				continue
			}
			for _, span := range SplitRows(pr.From, to, per) {
				span := span
				col := col
				socket := pr.Socket
				out = append(out, Task{Socket: socket, Run: func(w *sched.Worker, done func()) {
					wr.runWrap(env, w, col, span[0], span[1], done)
				}})
			}
		}
		// Delta fragments are small; the wrap re-streams them whole so
		// attachers observe watermark-visible delta rows too.
		if col.Delta != nil {
			snap := col.Delta.Snapshot()
			for sock := 0; sock < col.Delta.Sockets(); sock++ {
				rows := snap.Rows[sock]
				if rows == 0 {
					continue
				}
				for i, pred := range wr.Preds {
					wr.regions[i] = append(wr.regions[i], Region{
						Col: col, Part: part, Socket: sock,
						Matches: int(pred.Selectivity*float64(rows) + 0.5),
					})
				}
				sock, rows := sock, rows
				out = append(out, Task{Socket: sock, Run: func(w *sched.Worker, done func()) {
					wr.runWrapDelta(env, w, col, sock, rows, done)
				}})
			}
		}
	}
	return out
}

// Close attributes each attacher's logical full-column traffic (their
// physical bytes were charged partly to the main pass, partly to the wrap;
// the placer's read-heat signal still owes one logical scan per statement —
// spread, since no single copy served the whole ride) and fires the cohort
// hook.
func (wr *WrapScanOp) Close(p *Pipeline) {
	env := p.Env
	for _, part := range wr.Table.Parts {
		col := part.ColumnByName(wr.Column)
		if col == nil {
			continue
		}
		for range wr.Preds {
			env.addItem(col.Name, -1, Traffic{
				Bytes:   float64(col.IVRange.Bytes),
				IVBytes: float64(col.IVRange.Bytes),
			})
		}
	}
	if wr.OnClosed != nil {
		wr.OnClosed()
	}
}

// runWrap streams the wrapped IV rows [from,to) once; compute scales with
// the attacher count, output writes carry every attacher's full result
// bytes (their outputs are produced across ride + wrap but charged here).
func (wr *WrapScanOp) runWrap(env *Env, w *sched.Worker, col *colstore.Column, from, to int, onDone func()) {
	n := len(wr.Preds)
	src := w.Socket()
	var buf [psm.MaxSockets]int64
	perSocket, ivBytes := ivSocketBytes(env, col, src, from, to, buf[:])
	penalty := 1.0
	if !w.Bound {
		penalty = env.Costs.UnboundStreamPenalty
	}
	outBytes := 0.0
	scanned := to - from
	if frac := wr.Fraction; frac > 0 {
		// The wrap's share of each attacher's full-column output bytes.
		for _, pred := range wr.Preds {
			full := memberOutBytes(env, pred.Selectivity, int(pred.Selectivity*float64(col.Rows)+0.5), col.Rows)
			outBytes += full * float64(scanned) / (frac * float64(col.Rows))
		}
	}
	outPerByte := outBytes / float64(ivBytes+1)
	var flowBuf [4]*sim.Flow
	flows := flowBuf[:0]
	for dst, bytes := range perSocket {
		if bytes == 0 {
			continue
		}
		dst := dst
		demands, lt := env.HW.StreamDemands(src, dst, w.CoreRes, env.Costs.SharedScanCyclesPerByte(n))
		if outPerByte > 0 {
			demands = append(demands, sim.Demand{Resource: env.HW.MC[src], Weight: outPerByte})
		}
		flows = append(flows, &sim.Flow{
			Remaining: float64(bytes),
			RateCap:   env.Machine.StreamRate(src, dst) * penalty,
			Demands:   demands,
			OnAdvance: func(p float64) {
				env.Counters.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
				env.Counters.AddCompute(src, p*env.Costs.SharedScanInstrPerByte(n), 0)
			},
		})
	}
	RunFlows(env.Sim, flows, onDone)
}

// runWrapDelta re-streams one delta fragment for the attachers.
func (wr *WrapScanOp) runWrapDelta(env *Env, w *sched.Worker, col *colstore.Column, frag, rows int, onDone func()) {
	n := len(wr.Preds)
	bytes := float64(rows) * delta.RowBytes
	src := w.Socket()
	penalty := 1.0
	if !w.Bound {
		penalty = env.Costs.UnboundStreamPenalty
	}
	demands, lt := env.HW.StreamDemands(src, frag, w.CoreRes, env.Costs.SharedDeltaCyclesPerByte(n))
	env.Sim.StartFlow(&sim.Flow{
		Remaining: bytes,
		RateCap:   env.Machine.StreamRate(src, frag) * penalty,
		Demands:   demands,
		OnAdvance: func(p float64) {
			env.Counters.AddMemoryTraffic(src, frag, p, p*lt.Data, p*lt.Total)
			env.Counters.AddCompute(src, p*env.Costs.SharedScanInstrPerByte(n), 0)
		},
		OnDone: onDone,
	})
}

// StaticRegions feeds precomputed find-phase regions to a downstream output
// operator: follower statements of a cohort open instantly (the physical
// pass already ran) and materialize or aggregate their own logical result.
type StaticRegions struct {
	// Rs is the member's precomputed region set.
	Rs []Region
}

// Regions implements RegionSource.
func (s *StaticRegions) Regions() []Region { return s.Rs }

// Open implements Operator: no tasks — the find work was shared.
func (s *StaticRegions) Open(*Pipeline) []Task { return nil }

// Close implements Operator.
func (s *StaticRegions) Close(*Pipeline) {}
