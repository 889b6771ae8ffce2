package core

// The engine's write path: appends into per-socket delta fragments and the
// background merge that folds them back into the dictionary-encoded main.
// Writes are not statements — a delta append is orders of magnitude cheaper
// than a scan — so they bypass the scheduler: the data-structure mutation
// applies immediately (ApplyInsert/ApplyUpdate), and the DRAM traffic of a
// write batch is modeled as one flow per touched fragment against the
// fragment socket's memory controller (WriteBatch), which is how writes
// contend with concurrent scans. The merge runs as a background flow (StartMerge) whose completion
// swaps in the rebuilt main via placement.MergeDelta.

import (
	"fmt"
	"slices"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/delta"
	"numacs/internal/exec"
	"numacs/internal/placement"
	"numacs/internal/sim"
	"numacs/internal/trace"
)

// WriteBatch is one recycled batch of delta writes against the columns of
// one table: the planned writes in order, their dense row counts per
// (column, socket) fragment, and one traffic-flow record per touched
// fragment. Take one with Engine.WriteBatch, fill it with Insert and Update,
// and hand it to SubmitWrite, which owns it from then on.
//
// A batch returns to the engine's free list when its last flow drains, when
// admission sheds it, or at once when it touches no fragment — after it has
// fired its hooks. This is sound because the engine keeps a submitted batch
// only in the admission queue (see admit.Statement) and in its flows, and a
// flow record's OnDone is the simulator's last use of it; the caller must
// not touch a batch after SubmitWrite.
type WriteBatch struct {
	// Tenant, when set on an engine with an admission controller, routes
	// the batch through the controller as a short Interactive-class
	// statement of this tenant: the mutations are deferred until it is
	// admitted, and the Interactive deadline can shed the whole batch.
	// Otherwise the batch applies at once.
	Tenant string
	// OnShed fires when admission sheds the batch; its writes never apply.
	OnShed func()
	// OnApply fires once the batch's mutations are applied, with its insert
	// and update counts.
	OnApply func(inserts, updates int)

	e       *Engine
	cols    []*colstore.Column
	writes  []plannedWrite
	rows    []int // per (column, socket) fragment: col*sockets + socket
	flows   []*writeFlow
	pending int // flows still draining
	adm     admit.Statement
	next    *WriteBatch
}

// plannedWrite is one write of a batch: a value for the column at index col,
// appended on socket; row is the updated main row, -1 for an insert.
type plannedWrite struct {
	col, socket, row int
	v                int64
}

// writeFlow is a write batch's traffic-flow record for one fragment: the
// demand its flow starts with, the column its traffic is attributed to, and
// the socket of the fragment it writes. The flow's OnAdvance and OnDone are
// bound once, when the record is made.
type writeFlow struct {
	b         *WriteBatch
	demand    [1]sim.Demand
	col       *colstore.Column
	socket    int
	onAdvance func(float64)
	onDone    func()
}

// WriteBatch returns an empty batch over cols, the columns its writes index,
// from the engine's free list.
func (e *Engine) WriteBatch(cols []*colstore.Column) *WriteBatch {
	b := e.writeFree
	if b == nil {
		b = &WriteBatch{e: e}
		b.adm = admit.Statement{Run: b.admitted, OnShed: b.shed}
	} else {
		e.writeFree, b.next = b.next, nil
	}
	b.cols = cols
	n := len(cols) * e.Machine.Sockets
	b.rows = slices.Grow(b.rows[:0], n)[:n]
	clear(b.rows)
	return b
}

// Insert plans a new row carrying value v in column cols[col], appended to
// the fragment on socket (the writing client's socket).
func (b *WriteBatch) Insert(col, socket int, v int64) { b.add(col, socket, -1, v) }

// Update plans a new version of main row row of column cols[col], carrying
// value v, appended to the fragment on socket.
func (b *WriteBatch) Update(col, socket, row int, v int64) { b.add(col, socket, row, v) }

func (b *WriteBatch) add(col, socket, row int, v int64) {
	b.writes = append(b.writes, plannedWrite{col, socket, row, v})
	b.rows[col*b.e.Machine.Sockets+socket]++
}

// SubmitWrite applies the batch b: immediately, or — when b names a Tenant
// and the engine has an admission controller — once admission admits it as
// a short Interactive-class statement (under admission the batch may wait in
// its tenant's queue first, and the Interactive deadline can shed it, in
// which case nothing applies and b.OnShed fires). Applying performs the
// mutations in order (ApplyInsert/ApplyUpdate) and starts one traffic flow
// per touched fragment, column by column and socket by socket.
func (e *Engine) SubmitWrite(b *WriteBatch) {
	if b.Tenant == "" || e.Admit == nil {
		b.apply()
		return
	}
	e.enter(&b.adm, b.Tenant, admit.Interactive, e.startStatement(b.Tenant, admit.Interactive, nil))
}

// admitted is every batch's admission Run.
func (b *WriteBatch) admitted(int, float64) { b.apply() }

// apply performs the mutations, fires OnApply and starts the batch's flows.
func (b *WriteBatch) apply() {
	e := b.e
	inserts, updates := 0, 0
	for _, w := range b.writes {
		if w.row >= 0 {
			e.ApplyUpdate(b.cols[w.col], w.socket, w.row, w.v)
			updates++
		} else {
			e.ApplyInsert(b.cols[w.col], w.socket, w.v)
			inserts++
		}
	}
	if b.OnApply != nil {
		b.OnApply(inserts, updates)
	}
	sockets := e.Machine.Sockets
	for i, rows := range b.rows {
		if rows > 0 {
			b.startFlow(b.cols[i/sockets], i%sockets, rows)
		}
	}
	if b.pending == 0 {
		b.finish()
	}
}

// startFlow models the DRAM traffic of rows delta appends into col's
// fragment on socket as one flow against that socket's memory controller —
// writes contend with scans for the MC, which is the contention the Section
// 7 placer's update-rate concerns are about. The bytes are attributed to col
// as write traffic (arming the placer's write-guard) when a placer listens.
func (b *WriteBatch) startFlow(col *colstore.Column, socket, rows int) {
	e := b.e
	if b.pending == len(b.flows) {
		f := &writeFlow{b: b}
		f.onAdvance, f.onDone = f.advance, f.done
		b.flows = append(b.flows, f)
	}
	f := b.flows[b.pending]
	b.pending++
	f.col, f.socket = col, socket
	f.demand[0] = sim.Demand{Resource: e.HW.MC[socket], Weight: 1}
	e.Sim.StartFlow(&sim.Flow{
		Remaining: float64(rows) * e.Costs.DeltaWriteBytesPerRow,
		RateCap:   e.Machine.StreamRate(socket, socket),
		Demands:   f.demand[:],
		OnAdvance: f.onAdvance,
		OnDone:    f.onDone,
	})
}

// advance is every write flow's OnAdvance.
func (f *writeFlow) advance(p float64) {
	e := f.b.e
	e.Counters.AddMemoryTraffic(f.socket, f.socket, p, 0, 0)
	if add := e.env.AddItemTraffic; add != nil {
		add(f.col, f.socket, exec.Traffic{Bytes: p, WriteBytes: p})
	}
}

// done is every write flow's OnDone: the batch finishes with its last flow.
func (f *writeFlow) done() {
	if f.b.pending--; f.b.pending == 0 {
		f.b.finish()
	}
}

// finish ends an applied batch: its trace span closes, it returns to the
// free list, and its admission slot is freed.
func (b *WriteBatch) finish() {
	if st := b.adm.Trace; st != nil {
		st.MarkDone(b.e.Sim.Now())
	}
	b.free()
	b.adm.Done()
}

// shed is every batch's admission OnShed.
func (b *WriteBatch) shed() {
	onShed := b.OnShed
	b.free()
	if onShed != nil {
		onShed()
	}
}

// free returns b to the engine's free list.
func (b *WriteBatch) free() {
	clear(b.writes)
	b.writes = b.writes[:0]
	b.Tenant, b.OnShed, b.OnApply, b.cols, b.adm.Trace = "", nil, nil, nil, nil
	b.next, b.e.writeFree = b.e.writeFree, b
}

// ensureDelta returns the column's delta store, creating the per-socket
// fragments on the first write. Columns that are never written keep a nil
// Delta, which is what keeps the read-only scan paths bit-identical to a
// delta-free build.
func (e *Engine) ensureDelta(col *colstore.Column) *delta.Delta {
	if col.Delta == nil {
		col.Delta = delta.New(e.Machine.Sockets, col.Synthetic)
	}
	return col.Delta
}

// ApplyInsert appends a new row carrying value v to the column's delta
// fragment on the given socket (the writing client's socket — appends are
// always local). The simulated fragment allocation grows as needed. Traffic
// is accounted separately, one flow per fragment a WriteBatch touches.
func (e *Engine) ApplyInsert(col *colstore.Column, socket int, v int64) {
	d := e.ensureDelta(col)
	d.Insert(socket, v)
	e.Placer.EnsureDeltaCapacity(d.Fragment(socket))
}

// ApplyUpdate appends a new version of main row `row` carrying value v to
// the column's delta fragment on the given socket. Scans keep reading the
// stale main row until the next merge folds the new version in; the
// analytic match model treats the delta version as an extra scanned row.
func (e *Engine) ApplyUpdate(col *colstore.Column, socket, row int, v int64) {
	d := e.ensureDelta(col)
	d.Update(socket, row, v)
	e.Placer.EnsureDeltaCapacity(d.Fragment(socket))
}

// StartMerge launches the background merge of the column's delta: a flow
// streams the rebuild bytes (read old main + delta, write new main) at the
// column-rebuild rate against the target socket's memory controller, and on
// completion placement.MergeDelta swaps the rebuilt, re-placed main in
// (replicas invalidated and rebuilt). In-flight scans keep their plan-time
// watermark; appends during the merge stay in the delta. It returns whether
// a merge started, the NUMA target socket, and the modeled rebuild bytes.
// At most one merge runs per column (the delta's merge latch).
func (e *Engine) StartMerge(col *colstore.Column, onDone func(mergedRows int)) (started bool, target int, bytes int64) {
	d := col.Delta
	if d == nil || d.Rows() == 0 {
		return false, -1, 0
	}
	if !d.BeginMerge() {
		return false, -1, 0
	}
	// The merge folds exactly the rows visible now: the flow's bytes and the
	// completion's MergeDelta share this snapshot, so rows appended while
	// the rebuild is in flight stay in the delta for the next round.
	snap := d.Snapshot()
	// NUMA-aware target: the merged main lands where the primary copy
	// lives, so the rebuild writes (and the post-merge scans) stay local.
	target = col.IVPSM.MajoritySocket()
	if len(col.ReplicaSockets) > 0 {
		target = col.ReplicaSockets[0]
	}
	if target < 0 {
		target = 0
	}
	bytes = 2*(col.IVBytes()+col.DictBytes()) + int64(snap.TotalRows())*delta.RowBytes
	if e.Trace != nil {
		e.Trace.Decisions.Record(trace.Decision{
			Time: e.Sim.Now(), Source: "merge", Kind: "merge-start", Item: col.Name,
			From: target, To: target,
			Cause: fmt.Sprintf("%d delta rows folded into the main on socket %d (%.1fMiB rebuild)",
				snap.TotalRows(), target, float64(bytes)/(1<<20)),
		})
	}
	e.Sim.StartFlow(&sim.Flow{
		Remaining: float64(bytes),
		RateCap:   1 / placement.RebuildCostPerByte,
		Demands:   []sim.Demand{{Resource: e.HW.MC[target], Weight: 1}},
		OnAdvance: func(p float64) {
			// Merge traffic loads the target's MC but is deliberately NOT
			// attributed to the item as write traffic: the write-guard keys
			// on client writes, and a merge of a replicated, barely-written
			// column must not read as "write-hot" and self-reclaim the very
			// replicas it is about to rebuild.
			e.Counters.AddMemoryTraffic(target, target, p, 0, 0)
		},
		OnDone: func() {
			rows, pages := e.Placer.MergeDelta(col, snap)
			e.MergesCompleted++
			e.MergePagesCopied += pages
			d.EndMerge()
			if onDone != nil {
				onDone(rows)
			}
		},
	})
	return true, target, bytes
}
