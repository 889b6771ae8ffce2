package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is virtual time in seconds.
type Time = float64

// ResourceID identifies a resource registered with an Engine.
type ResourceID int32

// Invalid is a sentinel for "no resource".
const Invalid ResourceID = -1

// Demand expresses how much capacity of a resource a flow consumes per unit
// of flow progress. A scan flow measured in bytes typically has Weight 1 on
// its memory controller, a coherence-inflated weight on each link of its
// route, and a cycles-per-byte weight on its core.
type Demand struct {
	Resource ResourceID
	Weight   float64
}

// Flow is a unit of in-flight work. Flows are created by tasks (scan phases,
// materialization phases, compute phases) and progress at the rate assigned
// by the max-min allocation each step.
type Flow struct {
	// Remaining is the number of units (bytes, accesses, cycles) left.
	Remaining float64
	// RateCap bounds the flow's own progress rate (units/s), independent of
	// resource contention. Zero means "uncapped".
	RateCap float64
	// Demands lists weighted resource consumption per unit of progress.
	Demands []Demand
	// OnDone fires when Remaining reaches zero. It runs during the engine
	// step, after all flows have advanced; it may start new flows.
	OnDone func()
	// OnAdvance, if set, is called each step with the progress made. Used by
	// the metrics layer to attribute traffic.
	OnAdvance func(progress float64)

	rate   float64
	seq    uint64
	active bool
	frozen bool // scratch for the allocator
}

// Actor is ticked once per engine step, before rate allocation. The
// scheduler, clients, the watchdog, and the adaptive data placer are actors.
type Actor interface {
	Tick(now Time)
}

// ActorFunc adapts a function to the Actor interface.
type ActorFunc func(now Time)

// Tick implements Actor.
func (fn ActorFunc) Tick(now Time) { fn(now) }

// Engine is the time-stepped fluid simulator.
type Engine struct {
	step Time
	now  Time

	names   []string
	caps    []float64
	usage   []float64 // cumulative units consumed per resource
	doneBuf []*Flow   // scratch for Step's completions

	// Scratch for the allocator, reused across steps.
	residual []float64    // per resource: capacity not yet handed out, as of synced
	load     []float64    // per resource: weight of the unfrozen flows
	synced   []int        // per resource: drain-log entries applied to residual
	drains   []float64    // the allocation's drain log: each round's positive rise
	loaded   []ResourceID // resources with load, ascending
	byCap    []capKey     // flows by effective cap
	capBuf   []capKey     // the cap order's merge buffer
	live     []*Flow      // flows no bottleneck has frozen yet

	flows   []*Flow
	nextSeq uint64

	actors []Actor

	// Stats.
	steps     uint64
	completed uint64
}

// New creates an engine with the given step length in seconds.
func New(step Time) *Engine {
	if step <= 0 {
		panic("sim: step must be positive")
	}
	return &Engine{step: step}
}

// Step returns the configured step length.
func (e *Engine) StepLen() Time { return e.step }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of steps executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// CompletedFlows returns the number of flows that have completed.
func (e *Engine) CompletedFlows() uint64 { return e.completed }

// AddResource registers a resource with the given capacity in units/s and
// returns its id.
func (e *Engine) AddResource(name string, capacity float64) ResourceID {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q must have positive capacity", name))
	}
	id := ResourceID(len(e.caps))
	e.names = append(e.names, name)
	e.caps = append(e.caps, capacity)
	e.usage = append(e.usage, 0)
	e.residual = append(e.residual, 0)
	e.load = append(e.load, 0)
	e.synced = append(e.synced, 0)
	return id
}

// SetResourceCapacity changes a resource's capacity in units/s, taking effect
// at the next allocation (the allocator re-reads capacities every step, so a
// capacity write costs nothing when unused). This is the fault-injection hook
// the chaos layer's bandwidth throttles scale live capacities through.
func (e *Engine) SetResourceCapacity(id ResourceID, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q must have positive capacity", e.names[id]))
	}
	e.caps[id] = capacity
}

// ResourceCapacity returns the capacity of a resource in units/s.
func (e *Engine) ResourceCapacity(id ResourceID) float64 { return e.caps[id] }

// ResourceUsage returns the cumulative units consumed on a resource.
func (e *Engine) ResourceUsage(id ResourceID) float64 { return e.usage[id] }

// ActiveDemand sums the demand weight currently-active flows place on each of
// the given resources, returning one total per id in order. It is an
// instantaneous utilization probe — unlike ResourceUsage, which is
// cumulative — and is what replica-aware scheduling weighs sockets by.
func (e *Engine) ActiveDemand(ids []ResourceID) []float64 {
	out := make([]float64, len(ids))
	if len(ids) == 0 {
		return out
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	idx := make([]int, hi-lo+1)
	for i := range idx {
		idx[i] = -1
	}
	for i, id := range ids {
		idx[id-lo] = i
	}
	for _, f := range e.flows {
		for _, d := range f.Demands {
			if d.Resource >= lo && d.Resource <= hi {
				if i := idx[d.Resource-lo]; i >= 0 {
					out[i] += d.Weight
				}
			}
		}
	}
	return out
}

// AddActor registers an actor ticked each step, in registration order.
func (e *Engine) AddActor(a Actor) { e.actors = append(e.actors, a) }

// StartFlow activates a flow. A zero-Remaining flow completes on the next
// step. The same Flow value must not be started twice concurrently.
//
// It panics on a flow the allocator cannot order or fill: a Remaining that
// is NaN, infinite or negative, a RateCap that is NaN or negative, or a
// demand on an unregistered resource or with a NaN, infinite or negative
// weight. Such a flow would otherwise poison every rate of the step.
func (e *Engine) StartFlow(f *Flow) {
	if f.active {
		panic("sim: flow already active")
	}
	if !(f.Remaining >= 0) || math.IsInf(f.Remaining, 1) {
		panic(fmt.Sprintf("sim: flow Remaining %v is not a finite non-negative number", f.Remaining))
	}
	if !(f.RateCap >= 0) {
		panic(fmt.Sprintf("sim: flow RateCap %v is NaN or negative", f.RateCap))
	}
	for _, d := range f.Demands {
		if d.Resource < 0 || int(d.Resource) >= len(e.caps) {
			panic(fmt.Sprintf("sim: flow demands unregistered resource %d", d.Resource))
		}
		if !(d.Weight >= 0) || math.IsInf(d.Weight, 1) {
			panic(fmt.Sprintf("sim: flow demand weight %v on %s is not a finite non-negative number",
				d.Weight, e.names[d.Resource]))
		}
	}
	f.active = true
	f.seq = e.nextSeq
	e.nextSeq++
	e.flows = append(e.flows, f)
}

// ActiveFlows returns the number of currently active flows.
func (e *Engine) ActiveFlows() int { return len(e.flows) }

// Step advances virtual time by one step: tick actors, allocate rates,
// advance flows, fire completions.
func (e *Engine) Step() {
	for _, a := range e.actors {
		a.Tick(e.now)
	}
	e.allocate()

	// Advance all flows and collect completions in deterministic (seq) order,
	// into a buffer reused across steps (taken while the callbacks run, so a
	// Step from inside one gets its own).
	done := e.doneBuf[:0]
	e.doneBuf = nil
	kept := e.flows[:0]
	for _, f := range e.flows {
		progress := f.rate * e.step
		if progress > f.Remaining {
			progress = f.Remaining
		}
		if progress > 0 {
			f.Remaining -= progress
			for _, d := range f.Demands {
				e.usage[d.Resource] += progress * d.Weight
			}
			if f.OnAdvance != nil {
				f.OnAdvance(progress)
			}
		}
		if f.Remaining <= 1e-9 {
			f.Remaining = 0
			f.active = false
			done = append(done, f)
		} else {
			kept = append(kept, f)
		}
	}
	// Zero the tail so aborted/done flows do not linger in the backing array.
	for i := len(kept); i < len(e.flows); i++ {
		e.flows[i] = nil
	}
	e.flows = kept

	// Derive now from the step count to avoid floating-point drift.
	e.steps++
	e.now = float64(e.steps) * e.step

	for _, f := range done {
		e.completed++
		if f.OnDone != nil {
			f.OnDone()
		}
	}
	clear(done)
	e.doneBuf = done[:0]
}

// Run steps the engine until virtual time reaches the given deadline.
func (e *Engine) Run(until Time) {
	for e.now < until {
		e.Step()
	}
}

// capKey is one flow's entry in the allocator's cap order.
type capKey struct {
	cap float64 // the flow's effective cap: RateCap bounded by Remaining/step
	f   *Flow
}

// boundMargin is the relative slack below the bound at which a cap round
// may skip the bottleneck scan; see allocate.
const boundMargin = 1e-9

// allocate computes a weighted max-min fair rate for every active flow via
// progressive filling: repeatedly find the resource (or per-flow cap) that
// saturates first if all unfrozen flows' rates rise uniformly, freeze the
// affected flows at that level, and continue.
//
// A round costs the flows it freezes, not the resources still loaded:
//
//   - Drain log. A round appends its positive rise to e.drains instead of
//     draining every loaded resource. A resource's residual is brought up to
//     date by sync, which replays the entries it has not applied with its
//     current load. That load has not changed since those entries were
//     logged, because a freeze syncs a resource before lowering its load, so
//     every residual sees the float operations the round-by-round drain
//     made, in the same order.
//   - Monotone bound. bound is a lower bound on the level at which the next
//     resource saturates: min caps/load at the start, then the limit of the
//     most recent bottleneck scan. A cap round whose cap lies below it by
//     more than boundMargin skips the scan, since the scan would have
//     found no resource binding first. Otherwise every loaded resource is
//     synced and scanned in ascending id order, so bottleneck ties break
//     toward the lowest id, and resources whose load fell to the scan
//     threshold leave the list.
//
// Why the bound holds: in exact arithmetic a resource's saturation level,
// level + residual/load, stays constant while its load is unchanged (each
// round lowers residual by rise*load and raises level by rise), and only
// rises when a freeze lowers that load or the clamp at 0 lifts residual.
// So no level falls below the minimum a scan found. In floats, each round's
// drain and the level's recomputation add a few ulps of that level; the
// 1e-9 margin covers more than 10^6 rounds of such error, far beyond the
// rounds an allocation takes (one per distinct cap or bottleneck).
func (e *Engine) allocate() {
	flows := e.flows
	if len(flows) == 0 {
		return
	}
	load := e.load
	clear(load)
	byCap := e.byCap[:0]
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
		// A flow can consume at most Remaining/step this step; allocating
		// more would reserve capacity it cannot use and starve other flows
		// (near-complete flows would otherwise hog resources for a whole
		// step).
		c := f.Remaining / e.step
		if f.RateCap > 0 && f.RateCap < c {
			c = f.RateCap
		}
		byCap = append(byCap, capKey{c, f})
		// load[r] = sum of weights of unfrozen flows on resource r.
		for _, d := range f.Demands {
			load[d.Resource] += d.Weight
		}
	}
	loaded := e.loaded[:0]
	bound := math.Inf(1)
	for r, l := range load {
		if l > 0 {
			loaded = append(loaded, ResourceID(r))
			e.residual[r] = e.caps[r]
			e.synced[r] = 0
			if lim := e.caps[r] / l; l > 1e-12 && lim < bound {
				bound = lim
			}
		}
	}
	e.loaded = loaded[:0]
	e.drains = e.drains[:0]
	// Flows by effective cap, ascending; equal caps in seq order, as
	// e.flows lists them.
	byCap, e.capBuf = sortByCap(byCap, e.capBuf)
	e.byCap = byCap[:0]
	nextCap := 0
	// live holds the flows not yet frozen by a bottleneck, in seq order
	// (cap rounds freeze out of order, so it may still hold some of those).
	live := append(e.live[:0], flows...)
	e.live = live[:0]
	unfrozen := len(flows)

	level := 0.0 // current uniform rate level of all unfrozen flows
	for unfrozen > 0 {
		// Headroom until the next per-flow cap binds.
		for nextCap < len(byCap) && byCap[nextCap].f.frozen {
			nextCap++
		}
		capLimit := math.Inf(1)
		if nextCap < len(byCap) {
			capLimit = byCap[nextCap].cap
		}

		// Headroom until the tightest resource saturates, unless the cap
		// binds well below the bound. A resource whose load fell to the
		// scan threshold leaves the list: load only falls within a call, so
		// it can never bind again and its residual is never read again.
		limit := math.Inf(1)
		bottleneck := Invalid
		if !(capLimit < bound*(1-boundMargin)) {
			kept := loaded[:0]
			for _, r := range loaded {
				l := load[r]
				if l <= 1e-12 {
					continue
				}
				kept = append(kept, r)
				e.sync(r)
				if lim := level + e.residual[r]/l; lim < limit {
					limit = lim
					bottleneck = r
				}
			}
			loaded = kept
			bound = limit
		}

		if capLimit <= limit {
			// Freeze every unfrozen flow whose cap is at this level.
			target := capLimit
			delta := target - level
			if delta < 0 {
				delta = 0
				target = level
			}
			e.drain(delta)
			level = target
			for nextCap < len(byCap) && byCap[nextCap].cap <= target+1e-12 {
				if f := byCap[nextCap].f; !f.frozen {
					e.freeze(f, target)
					unfrozen--
				}
				nextCap++
			}
			continue
		}
		// A resource saturates: freeze all unfrozen flows that use it.
		delta := limit - level
		e.drain(delta)
		level = limit
		still := live[:0]
		for _, f := range live {
			if f.frozen {
				continue
			}
			if f.uses(bottleneck) {
				e.freeze(f, level)
				unfrozen--
			} else {
				still = append(still, f)
			}
		}
		live = still
		// Guard against numerical stalls: a round that rose by (almost)
		// nothing freezes every unfrozen flow at the current level. This
		// also fires when two resources saturate at the same level, which
		// caps flows that still have headroom elsewhere: a known defect,
		// kept until its fix re-pins every simulated number.
		if delta <= 1e-15 {
			for _, f := range live {
				e.freeze(f, level)
			}
			unfrozen -= len(live)
			live = live[:0]
		}
	}
}

// sortByCap orders keys by cap, ascending, keeping equal caps in their input
// order: insertion-sorted runs of 16, merged bottom-up through buf. It
// returns the sorted keys and the other slice's storage for reuse as the
// next call's buf.
func sortByCap(keys, buf []capKey) (sorted, spare []capKey) {
	const run = 16
	n := len(keys)
	for lo := 0; lo < n; lo += run {
		hi := min(lo+run, n)
		for i := lo + 1; i < hi; i++ {
			k := keys[i]
			j := i
			for ; j > lo && k.cap < keys[j-1].cap; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
	}
	if n <= run {
		return keys, buf
	}
	src, dst := keys, slices.Grow(buf[:0], n)[:n]
	for width := run; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if src[j].cap < src[i].cap {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	return src, dst[:0]
}

// drain logs the rise of a round: the unfrozen flows consume delta times
// their load of every loaded resource, applied to a resource when it is
// next synced.
func (e *Engine) drain(delta float64) {
	if delta > 0 {
		e.drains = append(e.drains, delta)
	}
}

// sync applies the drain-log entries resource r has not applied yet, each
// lowering its residual by the entry times its load, clamped at 0. A
// resource at or below the scan threshold is never drained: it has left
// the loaded list, and its residual is never read again.
func (e *Engine) sync(r ResourceID) {
	l := e.load[r]
	if l > 1e-12 {
		res := e.residual[r]
		for _, d := range e.drains[e.synced[r]:] {
			res -= d * l
			if res < 0 {
				res = 0
			}
		}
		e.residual[r] = res
	}
	e.synced[r] = len(e.drains)
}

// uses reports whether the flow places positive demand on resource r.
func (f *Flow) uses(r ResourceID) bool {
	for _, d := range f.Demands {
		if d.Resource == r && d.Weight > 0 {
			return true
		}
	}
	return false
}

// freeze fixes a flow's rate and removes its weights from the load vector,
// syncing each resource first so its pending drains apply at the old load.
// A resource whose load falls to the scan threshold skips the sync, since
// its residual is never read again.
func (e *Engine) freeze(f *Flow, rate float64) {
	f.frozen = true
	f.rate = rate
	for _, d := range f.Demands {
		r := d.Resource
		l := e.load[r] - d.Weight
		if l < 0 {
			l = 0
		}
		if l > 1e-12 {
			e.sync(r)
		}
		e.load[r] = l
	}
}
