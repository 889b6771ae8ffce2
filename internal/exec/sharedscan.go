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
// scans. A private ScanOp is the N = 1 case of the same code: both fan out
// through PlanSpans, draw matches with jitterMatches in task order, and run
// their tasks as findStreams, so a single-member pass equals the private scan
// by construction (the uncontended bypass guarantee).

import "numacs/internal/colstore"

// SharedScanOp is the find phase of a scan cohort: one physical pass over
// the column that evaluates every member predicate per chunk. Every member,
// leader (member 0) included, reads its regions via MemberRegions once the
// pass's barrier is reached. Each Open refills the operator's storage, so a
// cohort registry may reuse one for pass after pass.
type SharedScanOp struct {
	// Column is the scanned column, which every member shares: a cohort
	// scans one single-part table, so its regions are part 0's.
	Column *colstore.Column
	// Selectivities holds each cohort member's range-predicate selectivity,
	// leader first; it drives the member's analytic match counts and its
	// result-format (position list vs bitvector) output bytes.
	Selectivities []float64
	// FanoutCap is the members' summed admission fan-out caps (0 when any
	// member was admitted uncapped); it bounds the pass's task budget.
	FanoutCap int
	// OnClosed fires at the find barrier, after every member's regions are
	// final — the cohort registry's hook to start follower statements and
	// the attachers' wrap pass.
	OnClosed func()

	regions    [][]Region   // per member, parallel layouts
	spans      []KernelSpan // the pass's fan-out
	bytesTotal float64      // planned main-pass IV bytes
	bytesDone  float64      // streamed so far (attach-progress signal)
	findTasks
}

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

// memberRegions returns n emptied per-member region slices in rs's storage.
func memberRegions(rs [][]Region, n int) [][]Region {
	if n > cap(rs) {
		rs = append(rs[:cap(rs)], make([][]Region, n-cap(rs))...)
	}
	rs = rs[:n]
	for i := range rs {
		rs[i] = rs[i][:0]
	}
	return rs
}

// addRegion appends r to every member's regions: one layout, per-member
// match counts.
func addRegion(regions [][]Region, r Region) {
	for i := range regions {
		regions[i] = append(regions[i], r)
	}
}

// Open plans the shared find pass: ScanOp's parallel fan-out under the
// cohort's budget, then the delta union, with the whole predicate set
// carried by every task. Each task draws its members' matches (leader
// first) as it is planned.
func (s *SharedScanOp) Open(p *Pipeline) []Task {
	env, col := p.Env, s.Column
	n := len(s.Selectivities)
	s.regions = memberRegions(s.regions, n)
	s.bytesTotal, s.bytesDone = 0, 0
	mc := mcSnapshot{env: env}
	var fragBuf [4]RowRange
	spans := PlanSpans(s.spans, col, mc.forColumn(col), cohortBudget(p, n, s.FanoutCap))
	s.spans = spans
	frags := visibleDelta(fragBuf[:0], col)
	s.reset(len(spans) + len(frags))
	// stream plans one task, adding each member's matches to its newest
	// region and its result bytes to the task's output.
	stream := func(fs findStream) {
		fs.n = n
		rows := fs.to - fs.from
		for i, sel := range s.Selectivities {
			var m int
			if fs.delta {
				m = expectedMatches(rows, sel)
			} else {
				m = jitterMatches(env, rows, sel)
			}
			s.regions[i][len(s.regions[i])-1].Matches += m
			fs.outBytes += resultBytes(env, sel, m, rows)
		}
		s.emit(env, fs)
	}
	for k, sp := range spans {
		if k == 0 || sp.Part != spans[k-1].Part {
			addRegion(s.regions, Region{Col: col, Socket: sp.Socket})
		}
		s.bytesTotal += float64(col.IVBytesForRows(sp.From, sp.To))
		stream(findStream{col: col, from: sp.From, to: sp.To, socket: sp.Socket, pass: s})
	}
	for _, fr := range frags {
		addRegion(s.regions, Region{Col: col, Socket: fr.Socket})
		stream(findStream{col: col, to: fr.To, socket: fr.Socket, delta: true})
	}
	return s.tasks
}

// Close fires the cohort hook at the find barrier.
func (s *SharedScanOp) Close(*Pipeline) {
	if s.OnClosed != nil {
		s.OnClosed()
	}
}

// WrapScanOp is the ClockScan-style wrap-around pass of a cohort's
// mid-flight attachers: statements that attached while the main pass was at
// fraction f ride the remainder for free and then re-stream only the prefix
// they missed. The wrap streams Fraction of the column's IV (plus the delta
// fragments, whole) once for all attachers; each attacher's logical regions
// cover the full column, and it reads them via MemberRegions. Like
// SharedScanOp, it scans one column of a single-part table and refills its
// storage on each Open.
type WrapScanOp struct {
	// Column is the scanned column.
	Column *colstore.Column
	// Fraction is the prefix share of the row space to re-stream — the
	// largest fraction any attacher missed.
	Fraction float64
	// Selectivities holds each attacher's predicate selectivity, wrap
	// leader first.
	Selectivities []float64
	// FanoutCap is the attachers' summed admission fan-out caps (0 when any
	// attacher was admitted uncapped).
	FanoutCap int
	// OnClosed fires at the wrap barrier (regions final).
	OnClosed func()

	regions [][]Region
	rows    [][2]int // a partition's wrap spans
	findTasks
}

// MemberRegions returns attacher i's full-column find regions.
func (wr *WrapScanOp) MemberRegions(i int) []Region { return wr.regions[i] }

// Open plans the wrap tasks: the missed prefix of each scheduling partition,
// fanned out under the attachers' combined budget. Regions span the full
// column (ride + wrap); attachers' logical item traffic is attributed at the
// barrier (see Close), since their physical ride bytes were charged to the
// main pass.
func (wr *WrapScanOp) Open(p *Pipeline) []Task {
	env, col := p.Env, wr.Column
	n := len(wr.Selectivities)
	wr.regions = memberRegions(wr.regions, n)
	mc := mcSnapshot{env: env}
	var partBuf [8]RowRange
	var fragBuf [4]RowRange
	parts := PartitionsWeighted(partBuf[:0], col, mc.forColumn(col))
	frags := visibleDelta(fragBuf[:0], col)
	per := TasksPerPartition(cohortBudget(p, n, wr.FanoutCap), len(parts))
	wr.reset(len(parts)*per + len(frags))
	for _, pr := range parts {
		// Full-column logical regions, per attacher.
		for i, sel := range wr.Selectivities {
			wr.regions[i] = append(wr.regions[i], Region{
				Col: col, Socket: pr.Socket,
				Matches: jitterMatches(env, pr.To-pr.From, sel),
			})
		}
		// Physical wrap tasks: the missed prefix of THIS partition — the
		// pass streams its partitions in parallel, so an attacher at
		// fraction f missed ~f of each slice (and, for a replicated column,
		// the wrap bytes must come from every replica socket, not just the
		// low-row slices).
		to := min(pr.From+int(wr.Fraction*float64(pr.To-pr.From)+0.5), pr.To)
		wr.rows = SplitRows(wr.rows, pr.From, to, per)
		for _, span := range wr.rows {
			// Each task writes its share of every attacher's full-column
			// result bytes (produced across ride + wrap but charged here).
			fs := findStream{col: col, from: span[0], to: span[1], socket: pr.Socket, n: n, wrap: true}
			for _, sel := range wr.Selectivities {
				full := resultBytes(env, sel, expectedMatches(col.Rows, sel), col.Rows)
				fs.outBytes += full * float64(span[1]-span[0]) / (wr.Fraction * float64(col.Rows))
			}
			wr.emit(env, fs)
		}
	}
	// Delta fragments are small; the wrap re-streams them whole so attachers
	// observe watermark-visible delta rows too.
	for _, fr := range frags {
		for i, sel := range wr.Selectivities {
			wr.regions[i] = append(wr.regions[i], Region{
				Col: col, Socket: fr.Socket, Matches: expectedMatches(fr.To, sel),
			})
		}
		wr.emit(env, findStream{col: col, to: fr.To, socket: fr.Socket, delta: true, n: n, wrap: true})
	}
	return wr.tasks
}

// Close attributes each attacher's logical full-column traffic (their
// physical bytes were charged partly to the main pass, partly to the wrap;
// the placer's read-heat signal still owes one logical scan per statement —
// spread, since no single copy served the whole ride) and fires the cohort
// hook.
func (wr *WrapScanOp) Close(p *Pipeline) {
	col := wr.Column
	for range wr.Selectivities {
		p.Env.addItem(col, -1, Traffic{
			Bytes:   float64(col.IVRange.Bytes),
			IVBytes: float64(col.IVRange.Bytes),
		})
	}
	if wr.OnClosed != nil {
		wr.OnClosed()
	}
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
