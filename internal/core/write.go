package core

// The engine's write path: appends into per-socket delta fragments and the
// background merge that folds them back into the dictionary-encoded main.
// Writes are not statements — a delta append is orders of magnitude cheaper
// than a scan — so they bypass the scheduler: the data-structure mutation
// applies immediately (ApplyInsert/ApplyUpdate), and the DRAM traffic of an
// append batch is modeled as one flow against the fragment socket's memory
// controller (AddWriteTraffic), which is how writes contend with concurrent
// scans. The merge runs as a background flow (StartMerge) whose completion
// swaps in the rebuilt main via placement.MergeDelta.

import (
	"fmt"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/delta"
	"numacs/internal/exec"
	"numacs/internal/placement"
	"numacs/internal/sim"
	"numacs/internal/trace"
)

// SubmitWrite routes a write batch through the admission controller as a
// short Interactive-class statement when admission is enabled, or applies it
// immediately otherwise. apply must perform the data-structure mutations and
// start the batch's traffic flows, calling done when the flows complete —
// under admission the batch may wait in its tenant's queue first (writes are
// deferred, not applied-then-admitted), and the Interactive deadline can
// shed it, in which case apply never runs.
func (e *Engine) SubmitWrite(tenant string, onShed func(), apply func(done func())) {
	st := e.startStatement(tenant, admit.Interactive, nil)
	e.enter(tenant, admit.Interactive, st, onShed, func(_ int, _ float64, release func()) {
		apply(func() {
			if st != nil {
				st.MarkDone(e.Sim.Now())
			}
			if release != nil {
				release()
			}
		})
	})
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
// is accounted separately via AddWriteTraffic so callers can batch.
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

// AddWriteTraffic models the DRAM traffic of `rows` delta appends into the
// column's fragment on the given socket as one flow against that socket's
// memory controller — writes contend with scans for the MC, which is the
// contention the Section 7 placer's update-rate concerns are about. The
// bytes are attributed to the item as write traffic (arming the placer's
// write-guard). onDone, when non-nil, fires when the batch's flow drains
// (immediately for empty batches) — the hook admitted write statements
// report their completion through.
func (e *Engine) AddWriteTraffic(col *colstore.Column, socket, rows int, onDone func()) {
	if rows <= 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	bytes := float64(rows) * e.Costs.DeltaWriteBytesPerRow
	name := col.Name
	e.Sim.StartFlow(&sim.Flow{
		Remaining: bytes,
		RateCap:   e.Machine.StreamRate(socket, socket),
		Demands:   []sim.Demand{{Resource: e.HW.MC[socket], Weight: 1}},
		OnAdvance: func(p float64) {
			e.Counters.AddMemoryTraffic(socket, socket, p, 0, 0)
			e.addItemTraffic(name, socket, exec.Traffic{Bytes: p, WriteBytes: p})
		},
		OnDone: onDone,
	})
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
