// Package sharedscan is the scan-cohort layer between statement admission
// and operator execution. The paper's setting is many concurrent scans
// contending for memory bandwidth, yet each admitted statement traverses its
// column privately — 16 concurrent scans of a read-hot column pay 16 full
// memory passes, so the engine is memory-controller-bound long before the
// cores are. This package merges concurrent range-predicate scans of the
// same column into cohorts that share ONE physical pass (shared /
// cooperative scans in the style of Crescando and SAP HANA scan sharing):
//
//   - A per-column registry tracks one in-flight pass and one forming cohort
//     per column. The first arrival on an idle column launches immediately —
//     the uncontended path is a bypass, bit-identical to the unshared engine
//     (pinned by a harness golden test).
//   - An arrival while a pass is in its early fraction attaches mid-flight,
//     ClockScan-style: it rides the remainder of the running pass and a
//     wrap-around partial pass re-streams only the prefix it missed, shared
//     by all attachers of that generation.
//   - An arrival too late to attach waits in a forming cohort for up to
//     Config.JoinWindow (or until the running pass completes), merging with
//     every other arrival of the window into the next pass.
//
// Statements enter through one entry point, Registry.SubmitGroup: a single
// arrival is a group of one, and core.SubmitBatch hands it plan-driven
// groups of statements whose plans share a cohort key.
//
// Accounting is honest on both axes: physical MC/link/LLC traffic is charged
// once per cohort pass, while every member statement attributes its full
// logical per-item traffic so the adaptive placer's read-heat signal is
// undiminished (the mirror image of the delta-merge rule, which charges
// physical traffic but withholds the logical write signal). Each member's
// reported latency runs from its own submission — join-window wait included
// — so admission p99s stay truthful, and a member whose admission deadline
// expires while it waits in a join window is shed through its OnShed hook.
package sharedscan

import (
	"fmt"

	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/sim"
	"numacs/internal/trace"
)

// Config tunes the cohort registry. The zero value is usable: New fills
// every zero field with the documented default.
type Config struct {
	// JoinWindow is the longest a statement waits in a forming cohort, in
	// virtual seconds (default 1 ms). The cohort also launches early when
	// the pass it queued behind completes. Zero takes the default; negative
	// disables waiting (every non-attachable arrival launches its own pass).
	JoinWindow float64
	// AttachFraction bounds mid-flight attachment: an arrival attaches to a
	// running pass only while the pass has streamed at most this fraction of
	// its bytes (default 0.75). Beyond it, the wrap-around pass would
	// re-stream most of the column and sharing stops paying.
	AttachFraction float64
	// MaxCohort caps the members of one pass, attachers included (default
	// 64). A forming cohort that reaches the cap launches immediately, and
	// an arrival that does not fit the forming cohort's headroom launches it
	// as it is and queues on its own. A plan group larger than the cap still
	// runs whole: grouping never splits a common subplan.
	MaxCohort int
	// DisableAttach turns off mid-flight attachment (arrivals during a pass
	// always queue in the forming cohort) — for ablations.
	DisableAttach bool
}

// Member is one shareable scan statement handed to the registry: the
// predicate and placement facts of the scan, the statement's own pipeline,
// and the hooks the registry drives its lifecycle through. Its owner may
// reuse it for another statement once it has started or been shed: the
// registry reads a member only until then.
type Member struct {
	// Key identifies the shared data item (table.column); scans with equal
	// keys may share a pass.
	Key string
	// Column is the scanned column, of a single-part table.
	Column *colstore.Column
	// Selectivity is the member's range-predicate selectivity.
	Selectivity float64
	// Deadline is the absolute virtual time after which the statement is
	// shed instead of launched (0 = none) — the admission class deadline
	// extended into the join window.
	Deadline float64
	// Phases returns the member's two phases in pipeline order: find as its
	// find phase, and its own output phase (materialization or aggregation)
	// reading src.
	Phases func(find exec.Operator, src exec.RegionSource) []exec.Operator
	// OnShed fires instead of the pipeline's OnDone when the member is shed
	// from a join window. It may reenter SubmitGroup synchronously
	// (closed-loop clients reissue), so the registry compacts its queues
	// before firing it.
	OnShed func()
	// Pipeline is the statement's pipeline; the registry sets Ops from
	// Phases when it starts the member. IssuedAt is the task priority and
	// the base of the reported latency, so join-window wait counts toward
	// both; MaxFanout is the admission fan-out cap the cohort's combined
	// budget is built from; and Trace, when non-nil, gets the cohort
	// lifecycle stamped onto it (join-window wait, mid-flight attach,
	// launch, shed) besides the operator phases.
	Pipeline exec.Pipeline

	// regions holds the member's copy of its find-phase regions, which its
	// output phase reads: a follower's find phase too.
	regions exec.StaticRegions
}

// Stats counts registry outcomes for reports and tests.
type Stats struct {
	// Statements counts members submitted; Passes counts physical cohort
	// passes launched (wrap passes excluded).
	Statements, Passes uint64
	// Solo counts passes launched with a single member — the bypass path.
	Solo uint64
	// Merged counts members that shared another member's pass at launch;
	// Attached counts members that attached to a pass mid-flight.
	Merged, Attached uint64
	// Wraps counts wrap-around passes run for attacher generations.
	Wraps uint64
	// Shed counts members shed while waiting in a join window.
	Shed uint64
	// PlanGrouped counts members that entered through a plan-driven group
	// (SubmitGroup): the planner's common-subplan detection, not arrival
	// timing, placed them in one cohort submission.
	PlanGrouped uint64
}

// cohort is one pass: its membership — launch members (leader first) and
// mid-flight attachers — the forming-window deadline before launch, and the
// pass's operators with their storage (selectivities, tasks, per-member
// regions). Cohorts are recycled records of the registry: the operators'
// find-barrier hooks are bound once, when a record is made, and every
// launch, attach and wrap refills the record's storage.
//
// A cohort is taken when a forming cohort or a launch needs one, and returns
// to the free list when the last of its barriers has run (holds counts them:
// the main pass's, and the wrap's when attachers rode it), or at once when
// it sheds every member before launch. Nothing reads it after that: each
// member copies its regions into its own StaticRegions at the barrier — a
// follower as it starts, the leader (of the pass or the wrap) before its
// output phase opens — so no output Open reads the pass; the registry
// reads Fraction only while the cohort is its key's running pass, which
// the main barrier ends; and every flow that reports progress to the pass
// has finished by its barrier. Members keep pointers to the pass's
// operators in their pipelines until their statements end, but never
// dereference them past the barrier.
type cohort struct {
	r         *Registry
	ks        *keyState
	key       string
	members   []*Member
	attachers []*Member
	launchAt  float64
	maxMissed float64 // largest pass fraction any attacher missed
	scan      exec.SharedScanOp
	wrap      exec.WrapScanOp
	holds     int
	next      *cohort
}

// keyState is the registry's per-column state: at most one running pass
// (attachable) and one forming cohort (waiting) per key.
type keyState struct {
	running *cohort
	forming *cohort
}

// Registry is the cohort layer: route shareable scans through SubmitGroup
// and register it as a simulation actor (core.Engine.EnableSharedScans does
// both wirings).
type Registry struct {
	cfg   Config
	sim   *sim.Engine
	byKey map[string]*keyState
	keys  []*keyState // deterministic Tick order
	stats Stats
	free  *cohort // recycled cohort records

	// Decisions, when non-nil, is the flight recorder's decision log: the
	// registry records cohort launches, mid-flight attaches, wrap passes,
	// and join-window sheds with their membership numbers.
	Decisions *trace.DecisionLog
}

// New builds a registry on the engine's simulator clock. Zero config fields
// take the documented defaults.
func New(cfg Config, se *sim.Engine) *Registry {
	if cfg.JoinWindow == 0 {
		cfg.JoinWindow = 1e-3
	}
	if cfg.JoinWindow < 0 {
		cfg.JoinWindow = 0
	}
	if cfg.AttachFraction <= 0 {
		cfg.AttachFraction = 0.75
	}
	if cfg.MaxCohort <= 0 {
		cfg.MaxCohort = 64
	}
	return &Registry{cfg: cfg, sim: se, byKey: make(map[string]*keyState)}
}

// Stats returns the registry outcome counters.
func (r *Registry) Stats() Stats { return r.stats }

// MeanCohort returns the mean members per physical pass (attachers counted
// toward their ridden pass; 0 before the first pass).
func (r *Registry) MeanCohort() float64 {
	if r.stats.Passes == 0 {
		return 0
	}
	return float64(r.stats.Statements-r.stats.Shed) / float64(r.stats.Passes)
}

// state returns (creating if needed) the per-key state.
func (r *Registry) state(key string) *keyState {
	ks, ok := r.byKey[key]
	if !ok {
		ks = &keyState{}
		r.byKey[key] = ks
		r.keys = append(r.keys, ks)
	}
	return ks
}

// take returns an empty cohort of key, whose state is ks, from the free
// list, or makes one.
func (r *Registry) take(ks *keyState, key string) *cohort {
	c := r.free
	if c == nil {
		c = &cohort{r: r}
		c.scan.OnClosed, c.wrap.OnClosed = c.mainDone, c.wrapDone
	} else {
		r.free, c.next = c.next, nil
	}
	c.ks, c.key = ks, key
	return c
}

// free returns c to the free list, dropping its members.
func (c *cohort) free() {
	clear(c.members)
	clear(c.attachers)
	c.members, c.attachers = c.members[:0], c.attachers[:0]
	c.ks, c.launchAt, c.maxMissed = nil, 0, 0
	c.next, c.r.free = c.r.free, c
}

// release ends one of c's barriers; the last frees it.
func (c *cohort) release() {
	if c.holds--; c.holds == 0 {
		c.free()
	}
}

// SubmitGroup routes a group of same-key shareable scan statements into the
// cohort lifecycle as one unit. A single arrival is a group of one: an idle
// column launches it immediately (the bypass), an early-fraction running pass
// absorbs it mid-flight, anything else queues it in the forming cohort for
// at most JoinWindow. A larger group is plan-driven — core.SubmitBatch hands
// it the members whose physical plans share one cohort key — and the whole
// group lands in the same cohort without waiting out a join window per
// member. A group that cannot ride the forming cohort or attach to the
// running pass in full launches or queues together, so plan-time grouping
// never splits a detected common subplan. The registry copies g and keeps no
// reference to it.
func (r *Registry) SubmitGroup(g []*Member) {
	grouped := len(g) > 1
	key := g[0].Key
	now := r.sim.Now()
	r.stats.Statements += uint64(len(g))
	for _, m := range g {
		if m.Pipeline.Trace != nil {
			m.Pipeline.Trace.MarkCohortQueued(now)
		}
	}
	if grouped {
		r.stats.PlanGrouped += uint64(len(g))
		if r.Decisions != nil {
			r.Decisions.Record(trace.Decision{
				Time: now, Source: "cohort", Kind: "plan-group", Item: key, From: -1, To: -1,
				Cause: fmt.Sprintf("planner grouped %d statements on a common subplan", len(g)),
			})
		}
	}
	ks := r.state(key)
	// A forming cohort without headroom for the whole group launches as it
	// is. The launch may fire shed hooks that reenter SubmitGroup and queue a
	// new forming cohort, hence the loop.
	for c := ks.forming; c != nil && len(c.members)+len(g) > r.cfg.MaxCohort; c = ks.forming {
		ks.forming = nil
		r.launch(ks, c)
	}
	if c := ks.forming; c != nil {
		c.members = append(c.members, g...)
		if len(c.members) >= r.cfg.MaxCohort {
			ks.forming = nil
			r.launch(ks, c)
		}
		return
	}
	if c := ks.running; c != nil {
		if !r.cfg.DisableAttach && len(c.members)+len(c.attachers)+len(g) <= r.cfg.MaxCohort {
			if f := c.scan.Fraction(); f <= r.cfg.AttachFraction {
				r.attach(c, g, grouped, f)
				return
			}
		}
		c := r.take(ks, key)
		c.members = append(c.members, g...)
		c.launchAt = now + r.cfg.JoinWindow
		ks.forming = c
		return
	}
	c := r.take(ks, key)
	c.members = append(c.members, g...)
	r.launch(ks, c)
}

// attach adds g to the running pass c, which has streamed fraction f of its
// bytes, as mid-flight attachers.
func (r *Registry) attach(c *cohort, g []*Member, grouped bool, f float64) {
	now := r.sim.Now()
	if f > c.maxMissed {
		c.maxMissed = f
	}
	c.attachers = append(c.attachers, g...)
	r.stats.Attached += uint64(len(g))
	for _, m := range g {
		if m.Pipeline.Trace != nil {
			m.Pipeline.Trace.MarkAttached()
			m.Pipeline.Trace.MarkCohortLaunched(now)
		}
	}
	if r.Decisions == nil {
		return
	}
	cause := fmt.Sprintf("running pass at %.0f%% of its bytes (attach bound %.0f%%), %d riders",
		f*100, r.cfg.AttachFraction*100, len(c.attachers))
	if grouped {
		cause = fmt.Sprintf("plan group of %d attached at %.0f%% of the running pass (attach bound %.0f%%)",
			len(g), f*100, r.cfg.AttachFraction*100)
	}
	r.Decisions.Record(trace.Decision{
		Time: now, Source: "cohort", Kind: "attach", Item: c.key, From: -1, To: -1, Cause: cause,
	})
}

// Tick implements sim.Actor: shed join-window waiters whose deadline passed
// and launch forming cohorts whose window closed.
func (r *Registry) Tick(now float64) {
	var buf [8]*Member
	for _, ks := range r.keys {
		c := ks.forming
		if c == nil {
			continue
		}
		expired := r.compactExpired(buf[:0], c, now)
		if len(c.members) == 0 {
			ks.forming = nil
			c.free()
		} else if now >= c.launchAt {
			ks.forming = nil
			r.launch(ks, c)
		}
		r.fireSheds(expired)
	}
}

// compactExpired removes members past their deadline from the cohort and
// returns them in buf's storage; the caller fires their OnShed hooks only
// after the registry state is consistent (OnShed may reenter SubmitGroup).
func (r *Registry) compactExpired(buf []*Member, c *cohort, now float64) []*Member {
	expired := buf[:0]
	kept := c.members[:0]
	for _, m := range c.members {
		if m.Deadline > 0 && now > m.Deadline {
			expired = append(expired, m)
		} else {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(c.members); i++ {
		c.members[i] = nil
	}
	c.members = kept
	return expired
}

// fireSheds counts and fires the shed hooks.
func (r *Registry) fireSheds(expired []*Member) {
	now := r.sim.Now()
	for _, m := range expired {
		r.stats.Shed++
		if m.Pipeline.Trace != nil {
			m.Pipeline.Trace.MarkShed(now, "join-window")
		}
		if r.Decisions != nil {
			r.Decisions.Record(trace.Decision{
				Time: now, Source: "cohort", Kind: "shed", Item: m.Key, From: -1, To: -1,
				Cause: fmt.Sprintf("waited %.3gms > %.3gms deadline in the join window",
					(now-m.Pipeline.IssuedAt)*1e3, (m.Deadline-m.Pipeline.IssuedAt)*1e3),
			})
		}
		if m.OnShed != nil {
			m.OnShed()
		}
	}
}

// launch starts a cohort's physical pass on the leader's (first member's)
// pipeline: its find phase carries every member's predicate, with the
// leader's own output phase downstream. ks.running is set before any hook
// can run, so reentrant submissions see a consistent registry.
func (r *Registry) launch(ks *keyState, c *cohort) {
	var buf [8]*Member
	expired := r.compactExpired(buf[:0], c, r.sim.Now())
	if len(c.members) == 0 {
		c.free()
		r.fireSheds(expired)
		return
	}
	leader := c.members[0]
	c.scan.Column = leader.Column
	c.scan.Selectivities = selectivities(c.scan.Selectivities[:0], c.members)
	c.scan.FanoutCap = summedFanout(c.members)
	c.holds = 1
	r.stats.Passes++
	if len(c.members) == 1 {
		r.stats.Solo++
	} else {
		r.stats.Merged += uint64(len(c.members) - 1)
	}
	now := r.sim.Now()
	for _, m := range c.members {
		if m.Pipeline.Trace != nil {
			m.Pipeline.Trace.MarkCohortLaunched(now)
		}
	}
	if r.Decisions != nil {
		r.Decisions.Record(trace.Decision{
			Time: now, Source: "cohort", Kind: "launch", Item: c.key, From: -1, To: -1,
			Cause: fmt.Sprintf("%d members share one pass (fan-out cap %d)",
				len(c.members), c.scan.FanoutCap),
		})
	}
	ks.running = c
	leader.start(&c.scan, &leader.regions)
	r.fireSheds(expired)
}

// mainDone runs at the cohort pass's find barrier: the leader takes its
// regions, followers' statements start (their find phase is already
// materialized in their regions), the attacher generation's wrap pass
// launches, and the column's forming cohort — which was waiting behind this
// pass — launches immediately.
func (c *cohort) mainDone() {
	r, ks := c.r, c.ks
	c.members[0].regions.Rs = append(c.members[0].regions.Rs[:0], c.scan.MemberRegions(0)...)
	for i, m := range c.members[1:] {
		m.startFollower(c.scan.MemberRegions(i + 1))
	}
	if len(c.attachers) > 0 {
		r.stats.Wraps++
		c.holds++
		al := c.attachers[0]
		c.wrap.Column, c.wrap.Fraction = al.Column, c.maxMissed
		c.wrap.Selectivities = selectivities(c.wrap.Selectivities[:0], c.attachers)
		c.wrap.FanoutCap = summedFanout(c.attachers)
		if r.Decisions != nil {
			r.Decisions.Record(trace.Decision{
				Time: r.sim.Now(), Source: "cohort", Kind: "wrap", Item: c.key, From: -1, To: -1,
				Cause: fmt.Sprintf("%d attachers re-stream the missed %.0f%% prefix",
					len(c.attachers), c.maxMissed*100),
			})
		}
		al.start(&c.wrap, &al.regions)
	}
	// A newer cohort may already have replaced this one as the column's
	// running pass (Tick launches a forming cohort when its window closes
	// even while an older pass is still streaming); only the current
	// incumbent clears the slot and early-launches the cohort queued behind
	// it.
	if ks.running == c {
		ks.running = nil
		if f := ks.forming; f != nil {
			// The pass this cohort queued behind is done — no reason to
			// keep waiting out the window.
			ks.forming = nil
			r.launch(ks, f)
		}
	}
	c.release()
}

// wrapDone runs at the wrap pass's barrier: the wrap leader takes its
// regions and the other attachers' statements start.
func (c *cohort) wrapDone() {
	c.attachers[0].regions.Rs = append(c.attachers[0].regions.Rs[:0], c.wrap.MemberRegions(0)...)
	for i, m := range c.attachers[1:] {
		m.startFollower(c.wrap.MemberRegions(i + 1))
	}
	c.release()
}

// start runs the member's statement: its pipeline's find phase is find,
// and its own output phase reads src.
func (m *Member) start(find exec.Operator, src exec.RegionSource) {
	m.Pipeline.Ops = m.Phases(find, src)
	m.Pipeline.Start()
}

// startFollower starts one follower statement, whose find phase is a copy
// of its regions in its own storage (instant).
func (m *Member) startFollower(regions []exec.Region) {
	m.regions.Rs = append(m.regions.Rs[:0], regions...)
	m.start(&m.regions, &m.regions)
}

// selectivities appends the members' predicate selectivities to sels, in
// member order.
func selectivities(sels []float64, members []*Member) []float64 {
	for _, m := range members {
		sels = append(sels, m.Selectivity)
	}
	return sels
}

// summedFanout returns the members' combined admission fan-out budget: the
// sum of their per-statement caps, or 0 (uncapped) when any member was
// admitted without one.
func summedFanout(members []*Member) int {
	sum := 0
	for _, m := range members {
		if m.Pipeline.MaxFanout <= 0 {
			return 0
		}
		sum += m.Pipeline.MaxFanout
	}
	return sum
}
