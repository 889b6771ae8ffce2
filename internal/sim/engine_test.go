package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestSingleFlowUncontended(t *testing.T) {
	e := New(0.001)
	r := e.AddResource("mc", 100)
	done := false
	f := start(e, &Flow{Remaining: 50, Demands: []Demand{{r, 1}}, OnDone: func() { done = true }})
	e.Step()
	almost(t, f.Rate(), 100, 1e-9, "rate")
	// 50 units at 100/s takes 0.5s.
	e.Run(0.5)
	if !done {
		t.Fatal("flow should be done after 0.5s")
	}
	almost(t, e.ResourceUsage(r), 50, 1e-6, "usage")
}

func TestRateCapBinds(t *testing.T) {
	e := New(0.001)
	r := e.AddResource("mc", 100)
	f := start(e, &Flow{Remaining: 1000, RateCap: 10, Demands: []Demand{{r, 1}}})
	e.Step()
	almost(t, f.Rate(), 10, 1e-9, "capped rate")
}

func TestFairShareTwoFlows(t *testing.T) {
	e := New(0.001)
	r := e.AddResource("mc", 100)
	f1 := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}})
	f2 := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}})
	e.Step()
	almost(t, f1.Rate(), 50, 1e-9, "f1 rate")
	almost(t, f2.Rate(), 50, 1e-9, "f2 rate")
}

func TestWeightedDemand(t *testing.T) {
	// A flow with weight 2 consumes twice the capacity per unit of progress,
	// so two such flows fairly share 100 capacity at rate 100/(2+2)=25 each.
	e := New(0.001)
	r := e.AddResource("mc", 100)
	f1 := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 2}}})
	e.StartFlow(&Flow{Remaining: 1e9, Demands: []Demand{{r, 2}}})
	e.Step()
	almost(t, f1.Rate(), 25, 1e-9, "weighted rate")
}

func TestMaxMinWithCapAndSpareRedistribution(t *testing.T) {
	// One capped flow at 10 and one uncapped flow share 100: the uncapped
	// flow should get the leftover 90.
	e := New(0.001)
	r := e.AddResource("mc", 100)
	f1 := start(e, &Flow{Remaining: 1e9, RateCap: 10, Demands: []Demand{{r, 1}}})
	f2 := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}})
	e.Step()
	almost(t, f1.Rate(), 10, 1e-9, "capped flow")
	almost(t, f2.Rate(), 90, 1e-9, "uncapped flow gets spare")
}

func TestTwoResourceBottleneck(t *testing.T) {
	// Flow A uses only MC (cap 100). Flow B uses MC and a link (cap 20).
	// B is link-bound at 20; A gets the remaining 80 of the MC.
	e := New(0.001)
	mc := e.AddResource("mc", 100)
	link := e.AddResource("link", 20)
	a := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{mc, 1}}})
	b := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{mc, 1}, {link, 1}}})
	e.Step()
	almost(t, b.Rate(), 20, 1e-9, "link-bound flow")
	almost(t, a.Rate(), 80, 1e-9, "local flow gets residual MC")
}

func TestCoherenceWeightInflatesLinkUsage(t *testing.T) {
	// A remote flow whose link weight is 1.5 (coherence tax) is limited to
	// linkCap/1.5 even with MC headroom.
	e := New(0.001)
	mc := e.AddResource("mc", 100)
	link := e.AddResource("link", 30)
	f := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{mc, 1}, {link, 1.5}}})
	e.Step()
	almost(t, f.Rate(), 20, 1e-9, "coherence-taxed rate")
	e.Step()
	// Usage on the link accrues at weight 1.5 per unit.
	almost(t, e.ResourceUsage(link), 2*20*0.001*1.5, 1e-9, "link usage")
	almost(t, e.ResourceUsage(mc), 2*20*0.001, 1e-9, "mc usage")
}

func TestNoDemandFlowCompletesNextStep(t *testing.T) {
	e := New(0.001)
	done := false
	e.StartFlow(&Flow{Remaining: 12345, OnDone: func() { done = true }})
	e.Step()
	if !done {
		t.Fatal("demandless flow should complete in one step")
	}
}

func TestOnDoneMayStartNewFlow(t *testing.T) {
	e := New(0.001)
	r := e.AddResource("mc", 1000)
	var order []int
	var second *Flow
	second = &Flow{Remaining: 1, Demands: []Demand{{r, 1}}, OnDone: func() { order = append(order, 2) }}
	first := &Flow{Remaining: 1, Demands: []Demand{{r, 1}}, OnDone: func() {
		order = append(order, 1)
		e.StartFlow(second)
	}}
	e.StartFlow(first)
	e.Run(0.01)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order = %v, want [1 2]", order)
	}
}

func TestAbortFlow(t *testing.T) {
	e := New(0.001)
	r := e.AddResource("mc", 100)
	done := false
	f := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}, OnDone: func() { done = true }})
	e.Step()
	e.abort(f)
	e.Run(0.1)
	if done {
		t.Fatal("aborted flow must not complete")
	}
	if e.ActiveFlows() != 0 {
		t.Fatal("aborted flow still active")
	}
}

func TestActorsTickEveryStep(t *testing.T) {
	e := New(0.01)
	n := 0
	e.AddActor(ActorFunc(func(now Time) { n++ }))
	e.Run(0.1)
	if n != 10 {
		t.Fatalf("actor ticked %d times, want 10", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New(0.001)
		mc := e.AddResource("mc", 100)
		link := e.AddResource("link", 25)
		var rates []float64
		for i := 0; i < 8; i++ {
			f := &Flow{Remaining: float64(10 + i), Demands: []Demand{{mc, 1}}}
			if i%2 == 0 {
				f.Demands = append(f.Demands, Demand{link, 1.2})
			}
			if i%3 == 0 {
				f.RateCap = float64(5 + i)
			}
			// The rate the flow finishes at, read while it is active.
			var rec *flow
			last := 0.0
			f.OnAdvance = func(float64) { last = rec.rate }
			f.OnDone = func() { rates = append(rates, last) }
			rec = start(e, f)
		}
		e.Run(10)
		return rates
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 8 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: the max-min allocation never oversubscribes any resource and
// never gives a flow more than its cap.
func TestAllocationFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		e := New(0.001)
		nres := 1 + rng.intn(6)
		ids := make([]ResourceID, nres)
		for i := range ids {
			ids[i] = e.AddResource("r", 1+rng.f64()*100)
		}
		nflows := 1 + rng.intn(24)
		flows := make([]*flow, nflows)
		for i := range flows {
			fl := &Flow{Remaining: 1e12}
			if rng.intn(2) == 0 {
				fl.RateCap = 0.5 + rng.f64()*50
			}
			nd := 1 + rng.intn(nres)
			seen := map[int]bool{}
			for j := 0; j < nd; j++ {
				r := rng.intn(nres)
				if seen[r] {
					continue
				}
				seen[r] = true
				fl.Demands = append(fl.Demands, Demand{ids[r], 0.1 + rng.f64()*3})
			}
			flows[i] = start(e, fl)
		}
		e.Step()
		use := make([]float64, nres)
		for _, fl := range flows {
			if fl.RateCap > 0 && fl.rate > fl.RateCap+1e-6 {
				return false
			}
			if fl.rate < -1e-9 {
				return false
			}
			for _, d := range fl.Demands {
				use[d.Resource] += fl.rate * d.Weight
			}
		}
		for i, u := range use {
			if u > e.caps[ids[i]]+1e-6*(1+e.caps[ids[i]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocation is work-conserving — every flow is bound either by its
// cap or by at least one saturated resource it uses.
func TestAllocationWorkConservingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		e := New(0.001)
		nres := 1 + rng.intn(4)
		ids := make([]ResourceID, nres)
		for i := range ids {
			ids[i] = e.AddResource("r", 1+rng.f64()*100)
		}
		nflows := 1 + rng.intn(12)
		flows := make([]*flow, nflows)
		for i := range flows {
			fl := &Flow{Remaining: 1e12}
			if rng.intn(3) == 0 {
				fl.RateCap = 0.5 + rng.f64()*50
			}
			r := rng.intn(nres)
			fl.Demands = []Demand{{ids[r], 0.5 + rng.f64()*2}}
			flows[i] = start(e, fl)
		}
		e.Step()
		use := make([]float64, nres)
		for _, fl := range flows {
			for _, d := range fl.Demands {
				use[d.Resource] += fl.rate * d.Weight
			}
		}
		for _, fl := range flows {
			if fl.RateCap > 0 && math.Abs(fl.rate-fl.RateCap) < 1e-6 {
				continue // cap-bound
			}
			bound := false
			for _, d := range fl.Demands {
				if use[d.Resource] >= e.caps[d.Resource]-1e-6*(1+e.caps[d.Resource]) {
					bound = true
				}
			}
			if !bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// tiny deterministic PRNG for property tests (avoids seeding math/rand
// globally and keeps failures reproducible from the seed input).
type trand struct{ s uint64 }

func newRand(seed int64) *trand { return &trand{uint64(seed)*2862933555777941757 + 3037000493} }

func (r *trand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *trand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *trand) f64() float64 { return float64(r.next()%1_000_000) / 1_000_000 }

// start starts f and returns the engine's record of the flow, through which
// a test reads its rate and progress while it is active (a record is
// recycled once its flow is done).
func start(e *Engine, f *Flow) *flow {
	e.StartFlow(f)
	return e.flows[len(e.flows)-1]
}

// Rate reports the most recently allocated rate (units/s).
func (f *flow) Rate() float64 { return f.rate }

// abort deactivates an active flow without firing OnDone and returns its
// record to the free list.
func (e *Engine) abort(f *flow) {
	if i := slices.Index(e.flows, f); i >= 0 {
		e.flows = slices.Delete(e.flows, i, i+1)
		f.OnDone, f.OnAdvance = nil, nil
		e.free = append(e.free, f)
	}
}
