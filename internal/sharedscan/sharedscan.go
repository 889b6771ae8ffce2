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
	"slices"

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
// and the hooks the registry drives its lifecycle through.
type Member struct {
	// Key identifies the shared data item (table.column); scans with equal
	// keys may share a pass.
	Key string
	// Table and Column name the scanned data.
	Table  *colstore.Table
	Column string
	// Selectivity is the member's range-predicate selectivity.
	Selectivity float64
	// Deadline is the absolute virtual time after which the statement is
	// shed instead of launched (0 = none) — the admission class deadline
	// extended into the join window.
	Deadline float64
	// SecondOp builds the member's private output phase (materialization or
	// aggregation) over its find-phase regions.
	SecondOp func(src exec.RegionSource) exec.Operator
	// OnShed fires instead of the pipeline's OnDone when the member is shed
	// from a join window. It may reenter Submit synchronously (closed-loop
	// clients reissue), so the registry compacts its queues before firing it.
	OnShed func()
	// Pipeline is the statement's pipeline without operators; the registry
	// sets Ops to the member's find phase and SecondOp when it starts the
	// member. IssuedAt is the task priority and the base of the reported
	// latency, so join-window wait counts toward both; MaxFanout is the
	// admission fan-out cap the cohort's combined budget is built from; and
	// Trace, when non-nil, gets the cohort lifecycle stamped onto it
	// (join-window wait, mid-flight attach, launch, shed) besides the
	// operator phases.
	Pipeline exec.Pipeline
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

// cohort is one pass's membership: launch members (leader first), mid-flight
// attachers, and the forming-window deadline before launch.
type cohort struct {
	key       string
	members   []*Member
	attachers []*Member
	pass      *exec.SharedScanOp
	launchAt  float64
	maxMissed float64 // largest pass fraction any attacher missed
}

// keyState is the registry's per-column state: at most one running pass
// (attachable) and one forming cohort (waiting) per key.
type keyState struct {
	running *cohort
	forming *cohort
}

// Registry is the cohort layer: route shareable scans through Submit and
// register it as a simulation actor (core.Engine.EnableSharedScans does
// both wirings).
type Registry struct {
	cfg   Config
	sim   *sim.Engine
	byKey map[string]*keyState
	keys  []*keyState // deterministic Tick order
	stats Stats

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

// Submit routes one shareable scan statement into the cohort lifecycle: an
// idle column launches it immediately (the bypass), an early-fraction
// running pass absorbs it mid-flight, anything else queues it in the
// forming cohort for at most JoinWindow.
func (r *Registry) Submit(m *Member) { r.enter([]*Member{m}, false) }

// SubmitGroup routes a plan-driven cohort group into the lifecycle as one
// unit: core.SubmitBatch hands it the members whose physical plans share one
// cohort key, and the whole group lands in the same cohort without waiting
// out a join window per member. A single member takes Submit's path and is
// not counted as plan-grouped. A group that cannot ride the forming cohort
// or attach to the running pass in full launches or queues together, so
// plan-time grouping never splits a detected common subplan.
func (r *Registry) SubmitGroup(g []*Member) { r.enter(g, len(g) > 1) }

// enter is the one lifecycle body of Submit and SubmitGroup: g is a group of
// same-key members (a single arrival is a group of one), and grouped says
// whether the planner formed it.
func (r *Registry) enter(g []*Member, grouped bool) {
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
	// is. The launch may fire shed hooks that reenter Submit and queue a new
	// forming cohort, hence the loop.
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
			if f := c.pass.Fraction(); f <= r.cfg.AttachFraction {
				r.attach(c, g, grouped, f)
				return
			}
		}
		ks.forming = &cohort{key: key, members: slices.Clone(g), launchAt: now + r.cfg.JoinWindow}
		return
	}
	r.launch(ks, &cohort{key: key, members: slices.Clone(g)})
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
	for _, ks := range r.keys {
		c := ks.forming
		if c == nil {
			continue
		}
		expired := r.compactExpired(c, now)
		if len(c.members) == 0 {
			ks.forming = nil
		} else if now >= c.launchAt {
			ks.forming = nil
			r.launch(ks, c)
		}
		r.fireSheds(expired)
	}
}

// compactExpired removes members past their deadline from the cohort and
// returns them; the caller fires their OnShed hooks only after the registry
// state is consistent (OnShed may reenter Submit).
func (r *Registry) compactExpired(c *cohort, now float64) []*Member {
	var expired []*Member
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
				Cause: fmt.Sprintf("deadline %.1fms passed while waiting in the join window", m.Deadline*1e3),
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
	expired := r.compactExpired(c, r.sim.Now())
	if len(c.members) == 0 {
		r.fireSheds(expired)
		return
	}
	leader := c.members[0]
	c.pass = &exec.SharedScanOp{
		Table:         leader.Table,
		Column:        leader.Column,
		Selectivities: selectivities(c.members),
		FanoutCap:     summedFanout(c.members),
		OnClosed:      func() { r.mainDone(ks, c) },
	}
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
				len(c.members), c.pass.FanoutCap),
		})
	}
	ks.running = c
	leader.start(c.pass, memberSource{c.pass, 0})
	r.fireSheds(expired)
}

// mainDone runs at the cohort pass's find barrier: followers' statements
// start (their find phase is already materialized in their regions), the
// attacher generation's wrap pass launches, and the column's forming cohort
// — which was waiting behind this pass — launches immediately.
func (r *Registry) mainDone(ks *keyState, c *cohort) {
	for i, m := range c.members[1:] {
		m.startFollower(c.pass.MemberRegions(i + 1))
	}
	if len(c.attachers) > 0 {
		r.stats.Wraps++
		al := c.attachers[0]
		wrap := &exec.WrapScanOp{
			Table:         al.Table,
			Column:        al.Column,
			Fraction:      c.maxMissed,
			Selectivities: selectivities(c.attachers),
			FanoutCap:     summedFanout(c.attachers),
		}
		wrap.OnClosed = func() {
			for i, m := range c.attachers[1:] {
				m.startFollower(wrap.MemberRegions(i + 1))
			}
		}
		if r.Decisions != nil {
			r.Decisions.Record(trace.Decision{
				Time: r.sim.Now(), Source: "cohort", Kind: "wrap", Item: c.key, From: -1, To: -1,
				Cause: fmt.Sprintf("%d attachers re-stream the missed %.0f%% prefix",
					len(c.attachers), c.maxMissed*100),
			})
		}
		al.start(wrap, memberSource{wrap, 0})
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
}

// start runs the member's statement: its pipeline's find phase is find,
// and its own output phase reads src.
func (m *Member) start(find exec.Operator, src exec.RegionSource) {
	m.Pipeline.Ops = []exec.Operator{find, m.SecondOp(src)}
	m.Pipeline.Start()
}

// startFollower starts one follower statement, whose find phase is the
// precomputed region set (instant).
func (m *Member) startFollower(regions []exec.Region) {
	src := &exec.StaticRegions{Rs: regions}
	m.start(src, src)
}

// selectivities returns the members' predicate selectivities, in member
// order.
func selectivities(members []*Member) []float64 {
	sels := make([]float64, len(members))
	for i, m := range members {
		sels[i] = m.Selectivity
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

// memberSource adapts one member's slice of a shared pass (main or wrap) to
// the RegionSource the output operators consume.
type memberSource struct {
	pass interface{ MemberRegions(i int) []exec.Region }
	i    int
}

// Regions implements exec.RegionSource.
func (m memberSource) Regions() []exec.Region { return m.pass.MemberRegions(m.i) }
