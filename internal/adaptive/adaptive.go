// Package adaptive implements the envisioned adaptive design of Section 7:
// a catalog exposing every column's Page Socket Mappings, and a data placer
// that continuously balances CPU and memory-bandwidth utilization across
// sockets by moving, repartitioning, or replicating hot data items, and
// shrinks cold partitioned items and stale replicas when utilization is
// balanced.
//
// The placer follows the paper's flowchart (Figure 20), extended with the
// replication placement of Section 4.2 as a third lever:
//
//	place data using RR
//	loop:
//	  if utilization unbalanced:
//	      find hottest socket, find hottest item on it
//	      if the item dominates the socket and is read-hot (scan traffic,
//	          no recent repartition churn) and the replica budget allows:
//	          add a replica of it on the coldest socket
//	      else if the item does not dominate the socket: move it to the
//	          coldest socket
//	      else: increase its partitions, placing the new partition on the
//	          coldest socket
//	  else:
//	      for each partitioned item with no active traffic: decrease
//	          partitions; for each replicated item, reclaim replicas whose
//	          traffic has decayed
package adaptive

import (
	"fmt"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/memsim"
	"numacs/internal/placement"
	"numacs/internal/trace"
)

// Catalog lists the tables whose columns the placer manages, mirroring the
// catalog component of Figure 20 (tables -> partitions -> columns -> PSMs).
type Catalog struct {
	Tables []*colstore.Table
}

// Columns enumerates all columns of single-part tables (the placer moves
// whole columns; physically partitioned tables are managed part-wise by
// their PP placement already).
func (c *Catalog) Columns() []*colstore.Column {
	var out []*colstore.Column
	for _, t := range c.Tables {
		for _, p := range t.Parts {
			out = append(out, p.Columns...)
		}
	}
	return out
}

// Config tunes the placer (the knobs of the Section 7 design; see the
// "adaptive placement knobs" section of EXPERIMENTS.md).
type Config struct {
	// Period between balancing rounds in virtual seconds.
	Period float64
	// ImbalanceRatio: a round triggers rebalancing when the hottest socket's
	// served bytes exceed the coldest's by this factor.
	ImbalanceRatio float64
	// DominanceFraction: an item "dominates" its socket when it contributes
	// at least this fraction of the socket's traffic — then it is
	// replicated or partitioned rather than moved.
	DominanceFraction float64
	// MaxPartitions caps IVP growth (machine sockets by default).
	MaxPartitions int

	// ReplicaBudgetBytes caps the total simulated memory spent on extra
	// column replicas (the Section 4.2 replication placement "at the
	// expense of memory"). Zero disables adaptive replication entirely —
	// the placer then balances with moves and repartitioning only.
	// DefaultConfig sets DefaultReplicaBudgetBytes, a 1/16 fraction of the
	// nominal per-socket DRAM the simulation assumes.
	ReplicaBudgetBytes int64
	// ReadHotFraction: an item qualifies for replication only when its
	// scan + dictionary read bytes are at least this fraction of its total
	// attributed traffic (replication suits read-mostly items; a column
	// whose traffic is dominated by output writes gains nothing from extra
	// read copies).
	ReadHotFraction float64
	// ReplicaCooldown is the virtual-time window after a move/repartition
	// of a column during which it is not replicated (no replication on top
	// of fresh repartition churn). Zero defaults to 2x Period.
	ReplicaCooldown float64
	// StaleReplicaFraction: in the balanced branch, an extra replica is
	// garbage-collected when it served less than this fraction of the
	// column's even per-copy share over the last period — the copy no
	// longer earns its keep.
	StaleReplicaFraction float64

	// WriteHotFraction is the write-guard's reclaim threshold: a replicated
	// column is write-hot when its last-period write traffic touches at
	// least this fraction of one replica's footprint — the rate at which
	// every copy goes stale (each write must reach all copies, and the next
	// merge rebuilds every replica in full). A write-hot column's extra
	// replicas are dropped: the update-rate concern that prices replication
	// out in Section 7. Independently of this threshold, a column with ANY
	// nonzero recent write traffic is never newly replicated.
	WriteHotFraction float64
	// MergeDeltaFraction is the size-based merge trigger: a background merge
	// starts when a column's delta bytes reach this fraction of its main IV
	// bytes. Negative disables merging entirely; zero means default.
	MergeDeltaFraction float64
	// MergeTrafficFraction is the scan-slowdown merge trigger: merge when
	// the delta's share of the column's scan bytes over the last period
	// (delta / (IV + delta)) exceeds this fraction — the delta is slowing
	// scans down even if it is still small relative to the main. A column
	// that is scanned but received no writes over the whole period is merged
	// unconditionally (folding a write-cold delta is pure win).
	MergeTrafficFraction float64
}

// DefaultReplicaBudgetBytes is the default replica budget: 1/16 of the
// 4 GiB-per-socket DRAM the simulated machines nominally have. Experiments
// that model explicit DRAM capacities should derive the budget from those
// instead.
const DefaultReplicaBudgetBytes = 4 << 30 / 16

// DefaultConfig returns the placer defaults.
func DefaultConfig() Config {
	return Config{
		Period:               10e-3,
		ImbalanceRatio:       1.4,
		DominanceFraction:    0.5,
		ReplicaBudgetBytes:   DefaultReplicaBudgetBytes,
		ReadHotFraction:      0.5,
		StaleReplicaFraction: 0.1,
		WriteHotFraction:     0.02,
		MergeDeltaFraction:   0.25,
		MergeTrafficFraction: 0.5,
	}
}

// Action records one placement decision, for observability and tests. Kind
// is one of "move", "partition-ivp", "replicate", "drop-replica", "shrink",
// "merge".
type Action struct {
	Time   float64
	Kind   string
	Column string
	From   int
	To     int
	Parts  int
	// Bytes is the replica memory allocated ("replicate") or reclaimed
	// ("drop-replica"), or the delta bytes being folded ("merge").
	Bytes int64
}

// Placer is the data placer actor of Figure 20. Register it with the
// simulation engine (engine.Sim.AddActor) after placing data with RR.
type Placer struct {
	Engine  *core.Engine
	Catalog *Catalog
	Cfg     Config

	lastRun   float64
	lastMC    []float64
	lastChurn map[string]float64 // column -> last move/repartition time

	// Actions is the decision log, newest last.
	Actions []Action
	// PagesMoved counts pages migrated by moves and repartitioning (the
	// move_pages cost proxy of Table 2).
	PagesMoved int64
	// PagesCopied counts pages streamed to create replicas (replication
	// copies data instead of moving pages).
	PagesCopied int64

	replicaBytes int64
	// PeakReplicaBytes is the high-water mark of replica memory, for
	// asserting the budget is never exceeded.
	PeakReplicaBytes int64
}

// New creates a placer. Zero-valued Config fields are filled with the
// DefaultConfig values field by field — except ReplicaBudgetBytes, whose
// zero is meaningful ("replication disabled"): start from DefaultConfig()
// to opt into the default budget. Any replicas already present on the
// catalog's columns (e.g. placed manually with PlaceReplicated) count
// against the budget from the start.
func New(e *core.Engine, cat *Catalog, cfg Config) *Placer {
	def := DefaultConfig()
	if cfg.Period == 0 {
		cfg.Period = def.Period
	}
	if cfg.ImbalanceRatio == 0 {
		cfg.ImbalanceRatio = def.ImbalanceRatio
	}
	if cfg.DominanceFraction == 0 {
		cfg.DominanceFraction = def.DominanceFraction
	}
	if cfg.ReadHotFraction == 0 {
		cfg.ReadHotFraction = def.ReadHotFraction
	}
	if cfg.StaleReplicaFraction == 0 {
		cfg.StaleReplicaFraction = def.StaleReplicaFraction
	}
	if cfg.WriteHotFraction == 0 {
		cfg.WriteHotFraction = def.WriteHotFraction
	}
	if cfg.MergeDeltaFraction == 0 {
		cfg.MergeDeltaFraction = def.MergeDeltaFraction
	}
	if cfg.MergeTrafficFraction == 0 {
		cfg.MergeTrafficFraction = def.MergeTrafficFraction
	}
	if cfg.MaxPartitions == 0 {
		cfg.MaxPartitions = e.Machine.Sockets
	}
	if cfg.ReplicaCooldown == 0 {
		cfg.ReplicaCooldown = 2 * cfg.Period
	}
	p := &Placer{
		Engine:    e,
		Catalog:   cat,
		Cfg:       cfg,
		lastMC:    make([]float64, e.Machine.Sockets),
		lastChurn: make(map[string]float64),
	}
	for _, col := range cat.Columns() {
		p.replicaBytes += col.ExtraReplicaBytes()
	}
	p.PeakReplicaBytes = p.replicaBytes
	return p
}

// ReplicaBytes returns the simulated memory currently spent on extra
// replicas, the quantity capped by Config.ReplicaBudgetBytes.
func (p *Placer) ReplicaBytes() int64 { return p.replicaBytes }

// record appends one action to the placer's decision log and, when the
// engine's flight recorder is enabled, mirrors it into the trace decision
// ring with the heat numbers that triggered it.
func (p *Placer) record(a Action, cause string) {
	p.Actions = append(p.Actions, a)
	if p.Engine.Trace != nil {
		p.Engine.Trace.Decisions.Record(trace.Decision{
			Time: a.Time, Source: "placer", Kind: a.Kind, Item: a.Column,
			From: a.From, To: a.To, Cause: cause,
		})
	}
}

// mib formats bytes as MiB for decision causes.
func mib(b float64) string { return fmt.Sprintf("%.1fMiB", b/(1<<20)) }

// Tick implements sim.Actor: one balancing round per Config.Period.
func (p *Placer) Tick(now float64) {
	if now-p.lastRun < p.Cfg.Period {
		return
	}
	p.lastRun = now
	e := p.Engine

	// Resync the replica-memory accounting with the catalog: a background
	// merge completing between rounds rebuilds replicas at the merged size
	// (placement.MergeDelta), changing their footprint out of band.
	p.replicaBytes = 0
	for _, col := range p.Catalog.Columns() {
		p.replicaBytes += col.ExtraReplicaBytes()
	}
	if p.replicaBytes > p.PeakReplicaBytes {
		p.PeakReplicaBytes = p.replicaBytes
	}

	// Per-socket utilization over the last period, from the MC byte
	// counters (the paper reads hardware counters here).
	cur := e.HW.MCUtilization()
	delta := make([]float64, len(cur))
	for s := range cur {
		delta[s] = cur[s] - p.lastMC[s]
		p.lastMC[s] = cur[s]
	}
	hot, cold := argmax(delta), p.coldestOnline(delta)
	traffic := e.ItemTraffic()
	defer e.ResetItemTraffic()

	total := 0.0
	for _, d := range delta {
		total += d
	}
	if total <= 0 {
		// A fully idle period carries no signal: leave placement (including
		// replicas) untouched rather than churn on a workload gap.
		return
	}
	// Write-side levers run every round, independent of balance: the
	// write-guard reclaims replicas of write-hot columns, and the merge
	// heuristics fold grown deltas back into the main.
	p.reclaimWriteHot(now, traffic)
	p.triggerMerges(now, traffic)
	if cold >= 0 && cold != hot &&
		delta[hot] > p.Cfg.ImbalanceRatio*maxf(delta[cold], total/float64(len(delta))/4) {
		p.rebalance(now, hot, cold, delta[hot], traffic)
		return
	}
	p.shrinkCold(now, traffic, total/float64(len(delta)))
}

// reclaimWriteHot is the drop half of the write-guard: every replicated
// column whose last-period write traffic touches at least
// Config.WriteHotFraction of one replica's footprint loses all extra
// replicas — each copy would have to absorb every write and the next merge
// rebuilds every copy in full, so replication no longer pays (the Section 7
// update-rate concern).
func (p *Placer) reclaimWriteHot(now float64, traffic map[string]*core.ItemTraffic) {
	for _, col := range p.Catalog.Columns() {
		if !col.Replicated() {
			continue
		}
		it := traffic[col.Name]
		if it == nil || it.WriteBytes <= 0 ||
			it.WriteBytes < p.Cfg.WriteHotFraction*float64(placement.ReplicaFootprintBytes(col)) {
			continue
		}
		for len(col.ReplicaSockets) > 1 {
			s := col.ReplicaSockets[len(col.ReplicaSockets)-1]
			freed := p.Engine.Placer.DropReplica(col, s)
			p.replicaBytes -= freed
			p.record(Action{Time: now, Kind: "drop-replica", Column: col.Name, From: s, Bytes: freed},
				fmt.Sprintf("write-guard: %s written last period >= %.0f%% of the replica footprint",
					mib(it.WriteBytes), p.Cfg.WriteHotFraction*100))
		}
	}
}

// triggerMerges fires the background merge for every column whose delta has
// outgrown one of the heuristics: the size trigger (delta bytes vs main IV
// bytes), the scan-slowdown trigger (the delta's share of last-period scan
// bytes), or the write-cold cleanup (scanned, non-empty delta, zero writes —
// folding is pure win). The merge itself runs asynchronously
// (core.Engine.StartMerge); its completion swaps in the rebuilt main.
func (p *Placer) triggerMerges(now float64, traffic map[string]*core.ItemTraffic) {
	if p.Cfg.MergeDeltaFraction < 0 {
		return
	}
	for _, col := range p.Catalog.Columns() {
		d := col.Delta
		if d == nil || d.Merging() || d.Rows() == 0 {
			continue
		}
		deltaBytes := d.SizeBytes()
		reason := ""
		if float64(deltaBytes) >= p.Cfg.MergeDeltaFraction*float64(col.IVBytes()) {
			reason = fmt.Sprintf("delta grew to %s >= %.0f%% of the %s main",
				mib(float64(deltaBytes)), p.Cfg.MergeDeltaFraction*100, mib(float64(col.IVBytes())))
		} else if it := traffic[col.Name]; it != nil && it.DeltaBytes > 0 {
			if scanBytes := it.IVBytes + it.DeltaBytes; it.DeltaBytes >= p.Cfg.MergeTrafficFraction*scanBytes {
				// The delta is slowing scans down.
				reason = fmt.Sprintf("delta served %s of %s scanned last period (>= %.0f%%)",
					mib(it.DeltaBytes), mib(scanBytes), p.Cfg.MergeTrafficFraction*100)
			} else if it.WriteBytes == 0 {
				// Write-cold cleanup: folding is pure win.
				reason = "write-cold delta still being scanned"
			}
		}
		if reason == "" {
			continue
		}
		started, target, _ := p.Engine.StartMerge(col, nil)
		if !started {
			continue
		}
		p.record(Action{Time: now, Kind: "merge", Column: col.Name, From: -1, To: target, Bytes: deltaBytes}, reason)
	}
}

// rebalance implements the unbalanced branch of the flowchart: replicate a
// read-hot dominating item, move a non-dominating one, or repartition.
func (p *Placer) rebalance(now float64, hot, cold int, hotBytes float64, traffic map[string]*core.ItemTraffic) {
	hottest, hottestTraffic := p.hottestOn(hot, traffic, false)
	if hottest == nil {
		return
	}
	if p.tryReplicate(now, hottest, hottestTraffic, hot, cold, hotBytes) {
		return
	}
	if hottest.Replicated() {
		// A replicated item has no move/partition lever left: moving the
		// primary would desynchronize the replica metadata and IVP conflicts
		// with replica-sliced scheduling. While the budget (or cooldown)
		// gates further replicas, offload the hot socket's next-hottest
		// unreplicated item instead.
		hottest, hottestTraffic = p.hottestOn(hot, traffic, true)
		if hottest == nil {
			return
		}
	}
	best := hottestTraffic.Bytes
	alloc := p.Engine.Placer.Alloc
	if best < p.Cfg.DominanceFraction*hotBytes && hottest.NumPartitions() == 1 {
		// The item does not dominate the hot socket: move it wholesale to
		// the coldest socket.
		moved := hottest.IVPSM.MoveRange(alloc, hottest.IVRange, cold)
		moved += hottest.DictPSM.MoveRange(alloc, hottest.DictRange, cold)
		if hottest.IXPSM != nil {
			moved += hottest.IXPSM.MoveRange(alloc, hottest.IXRange, cold)
		}
		p.PagesMoved += moved
		p.lastChurn[hottest.Name] = now
		p.record(Action{Time: now, Kind: "move", Column: hottest.Name, From: hot, To: cold},
			fmt.Sprintf("item served %s of hot socket %d's %s (< %.0f%% dominance): move to coldest socket %d",
				mib(best), hot, mib(hotBytes), p.Cfg.DominanceFraction*100, cold))
		return
	}
	// The item dominates: increase its partition count, placing the new
	// partition on the coldest socket. The whole-column placer always uses
	// the IVP mechanism — PP operates at table granularity and is delegated
	// to the repartitioning tooling (placement.PlacePP and the PPCost
	// model), so the action is labelled by the mechanism actually applied.
	// The paper's Figure 20 would pick PP for dictionary-heavy items; here
	// such items are preferentially served by replication above.
	nparts := hottest.NumPartitions()
	if nparts >= p.Cfg.MaxPartitions {
		return
	}
	sockets := currentIVSockets(hottest)
	sockets = append(sockets, cold)
	moved := p.Engine.Placer.RepartitionIVP(hottest, sockets)
	p.PagesMoved += moved
	p.lastChurn[hottest.Name] = now
	p.record(Action{Time: now, Kind: "partition-ivp", Column: hottest.Name, From: hot, To: cold, Parts: nparts + 1},
		fmt.Sprintf("item dominates hot socket %d (%s of %s served): split %d->%d partitions, new one on socket %d",
			hot, mib(best), mib(hotBytes), nparts, nparts+1, cold))
}

// hottestOn finds the item with the most attributed traffic that has a copy
// (primary IV pages or a replica) on the hot socket. skipReplicated
// restricts the search to items the move/partition levers still apply to.
func (p *Placer) hottestOn(hot int, traffic map[string]*core.ItemTraffic, skipReplicated bool) (*colstore.Column, *core.ItemTraffic) {
	var hottest *colstore.Column
	var hottestTraffic *core.ItemTraffic
	best := 0.0
	for _, col := range p.Catalog.Columns() {
		it := traffic[col.Name]
		if it == nil || col.IVPSM == nil {
			continue
		}
		if skipReplicated && col.Replicated() {
			continue
		}
		onHot := false
		for s, pages := range col.IVPSM.Summary() {
			if s == hot && pages > 0 {
				onHot = true
			}
		}
		for _, s := range col.ReplicaSockets {
			if s == hot {
				onHot = true
			}
		}
		if onHot && it.Bytes > best {
			best = it.Bytes
			hottest = col
			hottestTraffic = it
		}
	}
	return hottest, hottestTraffic
}

// tryReplicate applies the replication lever: a dominating, read-hot item
// with no recent repartition churn gains a copy on the coldest socket, if
// the memory budget allows. Returns true when a replica was added.
func (p *Placer) tryReplicate(now float64, col *colstore.Column, it *core.ItemTraffic, hot, cold int, hotBytes float64) bool {
	if p.Cfg.ReplicaBudgetBytes <= 0 || col.NumPartitions() != 1 {
		return false
	}
	if it == nil || it.Bytes <= 0 || it.Bytes < p.Cfg.DominanceFraction*hotBytes {
		return false
	}
	if it.WriteBytes > 0 {
		// Write-guard: any nonzero recent write traffic disqualifies the
		// column — every replica would have to absorb every write, so the
		// copies could never pay for themselves (Section 7's update-rate
		// concern pricing replication out).
		return false
	}
	if reads := it.IVBytes + it.DictBytes; reads < p.Cfg.ReadHotFraction*it.Bytes {
		return false
	}
	if t, ok := p.lastChurn[col.Name]; ok && now-t < p.Cfg.ReplicaCooldown {
		return false
	}
	for _, s := range col.ReplicaSockets {
		if s == cold {
			return false
		}
	}
	if p.replicaBytes+placement.ReplicaFootprintBytes(col) > p.Cfg.ReplicaBudgetBytes {
		return false
	}
	added := p.Engine.Placer.AddReplica(col, cold)
	if added == 0 {
		return false
	}
	p.replicaBytes += added
	if p.replicaBytes > p.PeakReplicaBytes {
		p.PeakReplicaBytes = p.replicaBytes
	}
	p.PagesCopied += (added + memsim.PageSize - 1) / memsim.PageSize
	p.record(Action{Time: now, Kind: "replicate", Column: col.Name, From: hot, To: cold, Bytes: added},
		fmt.Sprintf("read-hot item served %s of hot socket %d's %s (>= %.0f%% dominance, %.0f%% reads): replicate to cold socket %d",
			mib(it.Bytes), hot, mib(hotBytes), p.Cfg.DominanceFraction*100,
			(it.IVBytes+it.DictBytes)/it.Bytes*100, cold))
	return true
}

// shrinkCold implements the balanced branch: partitioned items with no
// active traffic collapse back toward a single partition (Section 6.1.4),
// and replicas that stopped earning their keep are garbage-collected,
// returning their memory to the budget. avgSocketBytes is the mean
// per-socket traffic of the last period, the absolute reference a
// replicated column's traffic must stay significant against. At most one
// action per round.
func (p *Placer) shrinkCold(now float64, traffic map[string]*core.ItemTraffic, avgSocketBytes float64) {
	for _, col := range p.Catalog.Columns() {
		it := traffic[col.Name]
		if col.Replicated() {
			if stale := p.staleReplica(col, it, avgSocketBytes); stale >= 0 {
				freed := p.Engine.Placer.DropReplica(col, stale)
				p.replicaBytes -= freed
				p.record(Action{Time: now, Kind: "drop-replica", Column: col.Name, From: stale, Bytes: freed},
					fmt.Sprintf("stale replica on socket %d: item traffic decayed below %.0f%% of the mean socket's %s",
						stale, p.Cfg.StaleReplicaFraction*100, mib(avgSocketBytes)))
				return
			}
			continue
		}
		if col.NumPartitions() <= 1 {
			continue
		}
		if it != nil && it.Bytes > 0 {
			continue // item is warm
		}
		sockets := currentIVSockets(col)
		moved := p.Engine.Placer.RepartitionIVP(col, sockets[:len(sockets)-1])
		p.PagesMoved += moved
		p.lastChurn[col.Name] = now
		p.record(Action{Time: now, Kind: "shrink", Column: col.Name, Parts: col.NumPartitions()},
			fmt.Sprintf("balanced round, no traffic on the item: shrink to %d partitions", col.NumPartitions()))
		return // at most one action per round
	}
}

// staleReplica returns the socket of one extra replica of the column whose
// last-period traffic no longer justifies the copy, or -1. A replica is
// stale when the column went fully cold, when its total traffic decayed to
// a negligible fraction of the average socket's (the column would no longer
// qualify for replication today), or when this particular copy served far
// less than its even share (scheduling drifted away from it).
func (p *Placer) staleReplica(col *colstore.Column, it *core.ItemTraffic, avgSocketBytes float64) int {
	if len(col.ReplicaSockets) < 2 {
		return -1
	}
	if it == nil || it.Bytes <= 0 || it.Bytes < p.Cfg.StaleReplicaFraction*avgSocketBytes {
		return col.ReplicaSockets[len(col.ReplicaSockets)-1]
	}
	evenShare := it.Bytes / float64(len(col.ReplicaSockets))
	for _, s := range col.ReplicaSockets[1:] {
		served := 0.0
		if s >= 0 && s < len(it.PerSocket) {
			served = it.PerSocket[s]
		}
		if served < p.Cfg.StaleReplicaFraction*evenShare {
			return s
		}
	}
	return -1
}

// currentIVSockets lists the sockets of the column's IVP partitions in
// partition order.
func currentIVSockets(col *colstore.Column) []int {
	n := col.NumPartitions()
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		from, to := col.PartitionBounds(i)
		mid := (from + to) / 2
		addr := col.IVRange.Start
		off := col.IVOffsetForRow(mid)
		if off < col.IVRange.Bytes {
			addr += memsim.Addr(off)
		}
		s := col.IVPSM.LocationOf(addr)
		if s < 0 {
			s = 0
		}
		out = append(out, s)
	}
	return out
}

// coldestOnline returns the socket with the least last-period traffic whose
// worker pool is online, or -1 when no socket is. Every lever places data on
// the cold socket, so a socket taken down by fault injection must never be
// the target: data moved there could only be served remotely, and the scans
// the placer is trying to localize would chase it off-socket. With every
// socket online this is exactly argmin (same first-index tie-break).
func (p *Placer) coldestOnline(v []float64) int {
	best := -1
	for s, x := range v {
		if !p.Engine.Sched.SocketOnline(s) {
			continue
		}
		if best < 0 || x < v[best] {
			best = s
		}
	}
	return best
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
