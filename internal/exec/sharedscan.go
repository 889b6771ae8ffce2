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

import (
	"fmt"

	"numacs/internal/colstore"
)

// SharedScanOp is the find phase of a scan cohort: one physical pass over
// the column that evaluates every member predicate per chunk. It implements
// Operator (the pass itself) and RegionSource (the leader's — member 0's —
// regions); followers consume their regions via MemberRegions. The planner
// shares single-part tables only; Open panics on any other.
type SharedScanOp struct {
	// Table and Column name the scanned data (every member shares them).
	Table  *colstore.Table
	Column string
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

// passColumn resolves the part and column a cohort pass scans. The planner
// marks only single-part tables shareable, so a pass over several parts is
// a caller bug.
func passColumn(t *colstore.Table, name string) (*colstore.Part, *colstore.Column) {
	if n := t.NumParts(); n != 1 {
		panic(fmt.Sprintf("exec: shared pass over table %s with %d parts, want 1", t.Name, n))
	}
	col := t.Parts[0].ColumnByName(name)
	if col == nil {
		panic(fmt.Sprintf("exec: no column %s", name))
	}
	return t.Parts[0], col
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
	env := p.Env
	part, col := passColumn(s.Table, s.Column)
	n := len(s.Selectivities)
	s.regions = make([][]Region, n)
	s.bytesTotal, s.bytesDone = 0, 0
	mc := mcSnapshot{env: env}
	var spanBuf [16]KernelSpan
	var fragBuf [4]RowRange
	spans := PlanSpans(spanBuf[:0], col, mc.forColumn(col), cohortBudget(p, n, s.FanoutCap))
	frags := visibleDelta(fragBuf[:0], col)
	out := make([]Task, 0, len(spans)+len(frags))
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
		out = append(out, fs.task(env))
	}
	for k, sp := range spans {
		if k == 0 || sp.Part != spans[k-1].Part {
			addRegion(s.regions, Region{Col: col, Part: part, Socket: sp.Socket})
		}
		s.bytesTotal += float64(col.IVBytesForRows(sp.From, sp.To))
		stream(findStream{col: col, from: sp.From, to: sp.To, socket: sp.Socket, pass: s})
	}
	for _, fr := range frags {
		addRegion(s.regions, Region{Col: col, Part: part, Socket: fr.Socket})
		stream(findStream{col: col, to: fr.To, socket: fr.Socket, delta: true})
	}
	return out
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
// cover the full column. Like SharedScanOp, it covers single-part tables
// only.
type WrapScanOp struct {
	// Table and Column name the scanned data.
	Table  *colstore.Table
	Column string
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
	part, col := passColumn(wr.Table, wr.Column)
	n := len(wr.Selectivities)
	wr.regions = make([][]Region, n)
	mc := mcSnapshot{env: env}
	var out []Task
	var partBuf [8]RowRange
	var rowBuf [16][2]int
	var fragBuf [4]RowRange
	parts, spans := PartitionsWeighted(partBuf[:0], col, mc.forColumn(col)), rowBuf[:0]
	per := TasksPerPartition(cohortBudget(p, n, wr.FanoutCap), len(parts))
	for _, pr := range parts {
		// Full-column logical regions, per attacher.
		for i, sel := range wr.Selectivities {
			wr.regions[i] = append(wr.regions[i], Region{
				Col: col, Part: part, Socket: pr.Socket,
				Matches: jitterMatches(env, pr.To-pr.From, sel),
			})
		}
		// Physical wrap tasks: the missed prefix of THIS partition — the
		// pass streams its partitions in parallel, so an attacher at
		// fraction f missed ~f of each slice (and, for a replicated column,
		// the wrap bytes must come from every replica socket, not just the
		// low-row slices).
		to := min(pr.From+int(wr.Fraction*float64(pr.To-pr.From)+0.5), pr.To)
		spans = SplitRows(spans, pr.From, to, per)
		for _, span := range spans {
			// Each task writes its share of every attacher's full-column
			// result bytes (produced across ride + wrap but charged here).
			fs := findStream{col: col, from: span[0], to: span[1], socket: pr.Socket, n: n, wrap: true}
			for _, sel := range wr.Selectivities {
				full := resultBytes(env, sel, expectedMatches(col.Rows, sel), col.Rows)
				fs.outBytes += full * float64(span[1]-span[0]) / (wr.Fraction * float64(col.Rows))
			}
			out = append(out, fs.task(env))
		}
	}
	// Delta fragments are small; the wrap re-streams them whole so attachers
	// observe watermark-visible delta rows too.
	for _, fr := range visibleDelta(fragBuf[:0], col) {
		for i, sel := range wr.Selectivities {
			wr.regions[i] = append(wr.regions[i], Region{
				Col: col, Part: part, Socket: fr.Socket, Matches: expectedMatches(fr.To, sel),
			})
		}
		out = append(out, findStream{col: col, to: fr.To, socket: fr.Socket, delta: true, n: n, wrap: true}.task(env))
	}
	return out
}

// Close attributes each attacher's logical full-column traffic (their
// physical bytes were charged partly to the main pass, partly to the wrap;
// the placer's read-heat signal still owes one logical scan per statement —
// spread, since no single copy served the whole ride) and fires the cohort
// hook.
func (wr *WrapScanOp) Close(p *Pipeline) {
	_, col := passColumn(wr.Table, wr.Column)
	for range wr.Selectivities {
		p.Env.addItem(col.Name, -1, Traffic{
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
