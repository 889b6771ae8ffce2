package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refAllocate is the plain progressive-filling solver: each round it scans
// every resource for the bottleneck and then drains every loaded resource
// in a separate pass, with the cap order from sort.SliceStable. It is the
// oracle allocate is compared against bit for bit. It writes each flow's
// rate and reports whether the stall guard froze any flow.
func refAllocate(e *Engine) (guardFired bool) {
	flows := e.flows
	if len(flows) == 0 {
		return false
	}
	residual := append([]float64(nil), e.caps...)
	effCap := make(map[*Flow]float64, len(flows))
	unfrozen := 0
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
		c := f.Remaining / e.step
		if f.RateCap > 0 && f.RateCap < c {
			c = f.RateCap
		}
		effCap[f] = c
		unfrozen++
	}

	// load[r] = sum of weights of unfrozen flows on resource r.
	load := make([]float64, len(e.caps))
	for _, f := range flows {
		for _, d := range f.Demands {
			load[d.Resource] += d.Weight
		}
	}

	// Flows sorted by effective cap, ascending. Stable by seq.
	capped := append([]*Flow(nil), flows...)
	sort.SliceStable(capped, func(i, j int) bool { return effCap[capped[i]] < effCap[capped[j]] })
	nextCap := 0

	drain := func(delta float64) {
		if delta <= 0 {
			return
		}
		for r := range residual {
			if load[r] > 0 {
				residual[r] -= delta * load[r]
				if residual[r] < 0 {
					residual[r] = 0
				}
			}
		}
	}
	freeze := func(f *Flow, rate float64) {
		f.frozen = true
		f.rate = rate
		for _, d := range f.Demands {
			load[d.Resource] -= d.Weight
			if load[d.Resource] < 0 {
				load[d.Resource] = 0
			}
		}
	}

	level := 0.0 // current uniform rate level of all unfrozen flows
	for unfrozen > 0 {
		// Headroom until the tightest resource saturates.
		limit := math.Inf(1)
		bottleneck := ResourceID(-1)
		for r := range residual {
			if load[r] <= 1e-12 {
				continue
			}
			l := level + residual[r]/load[r]
			if l < limit {
				limit = l
				bottleneck = ResourceID(r)
			}
		}
		// Headroom until the next per-flow cap binds.
		for nextCap < len(capped) && capped[nextCap].frozen {
			nextCap++
		}
		capLimit := math.Inf(1)
		if nextCap < len(capped) {
			capLimit = effCap[capped[nextCap]]
		}

		if capLimit <= limit {
			// Freeze every unfrozen flow whose cap is at this level.
			target := capLimit
			delta := target - level
			if delta < 0 {
				delta = 0
				target = level
			}
			drain(delta)
			level = target
			for nextCap < len(capped) && effCap[capped[nextCap]] <= target+1e-12 {
				f := capped[nextCap]
				if !f.frozen {
					freeze(f, target)
					unfrozen--
				}
				nextCap++
			}
			continue
		}
		// A resource saturates: freeze all unfrozen flows that use it.
		delta := limit - level
		drain(delta)
		level = limit
		for _, f := range flows {
			if f.frozen {
				continue
			}
			uses := false
			for _, d := range f.Demands {
				if d.Resource == bottleneck && d.Weight > 0 {
					uses = true
					break
				}
			}
			if uses {
				freeze(f, level)
				unfrozen--
			}
		}
		// Guard against numerical stalls: if nothing froze, freeze everything.
		if delta <= 1e-15 {
			stuck := true
			for _, f := range flows {
				if !f.frozen {
					for _, d := range f.Demands {
						if d.Resource == bottleneck && d.Weight > 0 {
							stuck = false
						}
					}
				}
			}
			if stuck {
				for _, f := range flows {
					if !f.frozen {
						freeze(f, level)
						unfrozen--
						guardFired = true
					}
				}
			}
		}
	}
	return guardFired
}

// randomInstance builds an engine with a random set of resources and active
// flows. Capacities, weights and rate caps come from small value sets so
// exact ties are common; the instances also hold zero weights, a resource
// listed twice in one flow, zero and tiny Remaining, and flows without
// demands.
func randomInstance(rng *rand.Rand) *Engine {
	e := New(1e-3)
	caps := []float64{10, 10, 20, 50, 100, 100, 1e3}
	nres := 1 + rng.Intn(12)
	for r := 0; r < nres; r++ {
		c := caps[rng.Intn(len(caps))]
		if rng.Intn(4) == 0 {
			c = 1 + rng.Float64()*200
		}
		e.AddResource("r", c)
	}
	weights := []float64{0, 0.5, 1, 1, 1.3, 2}
	rateCaps := []float64{0, 0, 5, 10, 10, 25}
	nflows := rng.Intn(40)
	for i := 0; i < nflows; i++ {
		f := &Flow{Remaining: 1e9}
		switch rng.Intn(10) {
		case 0:
			f.Remaining = 0
		case 1:
			f.Remaining = 1e-9 * rng.Float64()
		case 2:
			f.Remaining = 0.01 * float64(1+rng.Intn(3)) // binds as Remaining/step
		}
		f.RateCap = rateCaps[rng.Intn(len(rateCaps))]
		if rng.Intn(5) == 0 {
			f.RateCap = rng.Float64() * 60
		}
		nd := rng.Intn(4) // zero demands: a pure delay flow
		for k := 0; k < nd; k++ {
			w := weights[rng.Intn(len(weights))]
			if rng.Intn(5) == 0 {
				w = 0.1 + rng.Float64()*3
			}
			f.Demands = append(f.Demands, Demand{ResourceID(rng.Intn(nres)), w})
		}
		if nd > 0 && rng.Intn(8) == 0 {
			f.Demands = append(f.Demands, f.Demands[0]) // one resource twice
		}
		e.StartFlow(f)
	}
	return e
}

// rates returns every active flow's rate, in seq order.
func rates(e *Engine) []float64 {
	out := make([]float64, len(e.flows))
	for i, f := range e.flows {
		out[i] = f.rate
	}
	return out
}

// maxMinViolations checks an allocation against weighted max-min fairness
// (Bertsekas & Gallager, Data Networks, §6.5.2). Feasibility: no resource
// carries more than its capacity. Bottleneck condition: every flow sits at
// its effective cap, or uses a saturated resource on which no flow has a
// higher rate. It returns the feasibility failures and the flows that fail
// the bottleneck condition, as readable lines.
func maxMinViolations(e *Engine) (infeasible, unfair []string) {
	const tol = 1e-9
	used := make([]float64, len(e.caps))
	top := make([]float64, len(e.caps)) // highest rate of a flow on r
	for _, f := range e.flows {
		for _, d := range f.Demands {
			used[d.Resource] += f.rate * d.Weight
			if d.Weight > 0 && f.rate > top[d.Resource] {
				top[d.Resource] = f.rate
			}
		}
	}
	for r, u := range used {
		if u > e.caps[r]*(1+tol) {
			infeasible = append(infeasible, e.names[r]+" over capacity")
		}
	}
	for i, f := range e.flows {
		c := f.Remaining / e.step
		if f.RateCap > 0 && f.RateCap < c {
			c = f.RateCap
		}
		if f.rate >= c-1e-12-tol*c {
			continue
		}
		ok := false
		for _, d := range f.Demands {
			r := d.Resource
			if d.Weight > 0 && used[r] >= e.caps[r]*(1-tol) && top[r] <= f.rate*(1+tol) {
				ok = true
				break
			}
		}
		if !ok {
			unfair = append(unfair, fmt.Sprintf("flow %d at %v is below its fair share", i, f.rate))
		}
	}
	return infeasible, unfair
}

// TestAllocateMatchesReference: over many seeded random instances the
// allocator gives every flow bit-for-bit the reference solver's rate. Each
// instance is compared over three steps, so the allocator's scratch is
// reused across calls and some flows complete in between.
func TestAllocateMatchesReference(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 2_000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		e := randomInstance(rng)
		for step := 0; step < 3; step++ {
			e.allocate()
			got := rates(e)
			refAllocate(e)
			want := rates(e)
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("instance %d step %d flow %d: rate %v, reference %v", i, step, k, got[k], want[k])
				}
			}
			e.Step()
		}
	}
}

// nearTieInstance builds an engine whose first bottleneck comes after many
// cap rounds, with a probe cap placed right at the level where that
// resource saturates. Caps and weights are arbitrary floats, so every
// round's drain rounds. Uncapped flows keep their resources loaded until a
// bottleneck freezes them; 1-100 capped flows below every resource's initial
// saturation level freeze in cap rounds first. In half the instances those
// flows have no demands, so every load stays unchanged across the rounds
// and only rounding moves a saturation level (by up to about 6 ulps); in the
// other half, half of them carry small demands and lower the loads as they
// freeze. The probe is a demandless flow whose cap lies within ±4 ulps,
// or ±1e-12 to ±1e-9 relative, of the first bottleneck level that refAllocate
// reports without it, so adding it changes no earlier round.
func nearTieInstance(rng *rand.Rand) *Engine {
	e := New(1e-3)
	nres := 1 + rng.Intn(4)
	for r := 0; r < nres; r++ {
		e.AddResource("r", 1+rng.Float64()*200)
	}
	demands := func() []Demand {
		var ds []Demand
		for r := 0; r < nres; r++ {
			if rng.Intn(2) == 0 {
				ds = append(ds, Demand{ResourceID(r), 0.1 + rng.Float64()*3})
			}
		}
		return ds
	}
	for i := 1 + rng.Intn(6); i > 0; i-- {
		e.StartFlow(&Flow{Remaining: 1e9, Demands: demands()})
	}
	load := make([]float64, nres)
	for _, f := range e.flows {
		for _, d := range f.Demands {
			load[d.Resource] += d.Weight
		}
	}
	start := math.Inf(1) // the lowest initial saturation level
	for r, l := range load {
		if l > 0 {
			start = min(start, e.caps[r]/l)
		}
	}
	if math.IsInf(start, 1) {
		return e
	}
	withDemands := rng.Intn(2) == 0
	for i := 1 + rng.Intn(100); i > 0; i-- {
		f := &Flow{Remaining: 1e9, RateCap: start * rng.Float64() * 0.999}
		if withDemands && rng.Intn(2) == 0 {
			f.Demands = demands()
			for k := range f.Demands {
				f.Demands[k].Weight *= 0.01
			}
		}
		e.StartFlow(f)
	}
	refAllocate(e)
	level := math.Inf(1) // the first bottleneck's level: the least uncapped rate
	for _, f := range e.flows {
		if f.RateCap == 0 && f.rate > 0 {
			level = min(level, f.rate)
		}
	}
	if math.IsInf(level, 1) {
		return e
	}
	probe := level
	if rng.Intn(2) == 0 {
		probe = math.Float64frombits(uint64(int64(math.Float64bits(level)) + int64(rng.Intn(9)-4)))
	} else {
		rel := math.Pow(10, -12+3*rng.Float64())
		if rng.Intn(2) == 0 {
			rel = -rel
		}
		probe = level * (1 + rel)
	}
	e.StartFlow(&Flow{Remaining: 1e9, RateCap: probe})
	return e
}

// TestAllocateNearTiesMatchReference compares the allocator with the
// reference bit for bit on near-tie instances: a cap a few ulps or a
// relative 1e-12 to 1e-9 off the level at which a resource saturates, after
// up to 100 cap rounds. Such a cap tells allocate's scan-skipping bound
// apart from a bound without its safety margin, or with the margin of the
// wrong sign, which the random instances cannot.
func TestAllocateNearTiesMatchReference(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 4_000
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		e := nearTieInstance(rng)
		e.allocate()
		got := rates(e)
		refAllocate(e)
		want := rates(e)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("instance %d flow %d: rate %v, reference %v", i, k, got[k], want[k])
			}
		}
	}
}

// TestAllocateMaxMinFair runs the property checker over random instances:
// every allocation is feasible, and every max-min violation comes from an
// allocation in which the reference's stall guard froze flows.
func TestAllocateMaxMinFair(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	rng := rand.New(rand.NewSource(2))
	violations, guarded := 0, 0
	for i := 0; i < n; i++ {
		e := randomInstance(rng)
		fired := refAllocate(e)
		e.allocate()
		infeasible, unfair := maxMinViolations(e)
		if len(infeasible) > 0 {
			t.Fatalf("instance %d infeasible: %s", i, strings.Join(infeasible, "; "))
		}
		if fired {
			guarded++
		}
		if len(unfair) > 0 {
			violations++
			if !fired {
				t.Fatalf("instance %d violates max-min without the stall guard: %s", i, strings.Join(unfair, "; "))
			}
		}
	}
	if violations == 0 || guarded == 0 {
		t.Fatalf("the instances never exercise the stall guard (%d violations, %d guarded)", violations, guarded)
	}
	t.Logf("%d instances: %d with the guard firing, %d violating max-min", n, guarded, violations)
}

// TestStallGuardCapsHeadroomFlows pins the stall guard's known defect. Two
// resources of capacity 10 saturate at the same level, so the second
// bottleneck round rises by nothing and the guard freezes the third flow at
// 10 although its own resource offers 100. The property checker flags the
// allocation. The fix, item 3 of ROADMAP.md, runs the guard only when a
// round froze nothing, and flips this pin to 10/10/100.
func TestStallGuardCapsHeadroomFlows(t *testing.T) {
	e := New(1e-3)
	var fl [3]*Flow
	for i, c := range []float64{10, 10, 100} {
		r := e.AddResource("r", c)
		fl[i] = &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}}
		e.StartFlow(fl[i])
	}
	e.allocate()
	for i, want := range []float64{10, 10, 10} {
		if fl[i].rate != want {
			t.Fatalf("flow %d rate %v, want %v", i, fl[i].rate, want)
		}
	}
	if _, unfair := maxMinViolations(e); len(unfair) != 1 {
		t.Fatalf("checker flags %v, want the third flow", unfair)
	}
	if !refAllocate(e) {
		t.Fatal("the reference's guard did not fire")
	}
}

// TestAllocateNoAllocs: once its scratch has grown, a step's allocation
// allocates nothing.
func TestAllocateNoAllocs(t *testing.T) {
	e := randomInstance(rand.New(rand.NewSource(3)))
	for len(e.flows) < 30 {
		e = randomInstance(rand.New(rand.NewSource(int64(len(e.flows)) + 4)))
	}
	e.allocate()
	if n := testing.AllocsPerRun(100, e.allocate); n != 0 {
		t.Fatalf("allocate allocates %v times per call, want 0", n)
	}
}

// TestStartFlowRejectsBadFlows: a flow the allocator cannot order or fill
// panics at StartFlow, not mid-step.
func TestStartFlowRejectsBadFlows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		f    Flow
	}{
		{"NaN Remaining", Flow{Remaining: nan}},
		{"+Inf Remaining", Flow{Remaining: inf}},
		{"-Inf Remaining", Flow{Remaining: -inf}},
		{"negative Remaining", Flow{Remaining: -1}},
		{"NaN RateCap", Flow{Remaining: 1, RateCap: nan}},
		{"negative RateCap", Flow{Remaining: 1, RateCap: -1}},
		{"NaN weight", Flow{Remaining: 1, Demands: []Demand{{0, nan}}}},
		{"+Inf weight", Flow{Remaining: 1, Demands: []Demand{{0, inf}}}},
		{"negative weight", Flow{Remaining: 1, Demands: []Demand{{0, -1}}}},
		{"resource out of range", Flow{Remaining: 1, Demands: []Demand{{1, 1}}}},
		{"negative resource", Flow{Remaining: 1, Demands: []Demand{{Invalid, 1}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(1e-3)
			e.AddResource("r", 10)
			defer func() {
				if recover() == nil {
					t.Fatal("StartFlow accepted the flow")
				}
				if e.ActiveFlows() != 0 {
					t.Fatal("a rejected flow is active")
				}
			}()
			f := c.f
			e.StartFlow(&f)
		})
	}
	// The edges stay legal: zero Remaining and weight, an infinite cap.
	e := New(1e-3)
	r := e.AddResource("r", 10)
	e.StartFlow(&Flow{Remaining: 0, RateCap: inf, Demands: []Demand{{r, 0}}})
}
