package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestThreeTierMaxMin(t *testing.T) {
	// Classic progressive-filling example: capacity 60, three flows, one
	// capped at 10, one at 25, one uncapped -> rates 10, 25, 25.
	e := New(0.001)
	r := e.AddResource("r", 60)
	f1 := start(e, &Flow{Remaining: 1e9, RateCap: 10, Demands: []Demand{{r, 1}}})
	f2 := start(e, &Flow{Remaining: 1e9, RateCap: 25, Demands: []Demand{{r, 1}}})
	f3 := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}})
	e.Step()
	almost(t, f1.Rate(), 10, 1e-9, "f1")
	almost(t, f2.Rate(), 25, 1e-9, "f2")
	almost(t, f3.Rate(), 25, 1e-9, "f3")
}

func TestChainedBottlenecks(t *testing.T) {
	// Flow A crosses r1(30) and r2(100); flow B crosses only r2. A is bound
	// by r1 at 30; B takes the rest of r2: 70.
	e := New(0.001)
	r1 := e.AddResource("r1", 30)
	r2 := e.AddResource("r2", 100)
	a := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r1, 1}, {r2, 1}}})
	b := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r2, 1}}})
	e.Step()
	almost(t, a.Rate(), 30, 1e-9, "a")
	almost(t, b.Rate(), 70, 1e-9, "b")
}

func TestFlowJoinMidway(t *testing.T) {
	// A flow running alone at full capacity halves when a second flow joins.
	e := New(0.001)
	r := e.AddResource("r", 100)
	a := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}})
	e.Step()
	almost(t, a.Rate(), 100, 1e-9, "alone")
	b := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}})
	e.Step()
	almost(t, a.Rate(), 50, 1e-9, "shared")
	almost(t, b.Rate(), 50, 1e-9, "joiner")
}

func TestCapacityFreedOnCompletion(t *testing.T) {
	e := New(0.01)
	r := e.AddResource("r", 100)
	e.StartFlow(&Flow{Remaining: 1, Demands: []Demand{{r, 1}}}) // short
	long := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}})
	e.Step() // short completes (rate 50 x 0.01 = 0.5 < 1? no: 0.5 < 1 remaining)
	e.Step() // short completes here
	e.Step()
	almost(t, long.Rate(), 100, 1e-9, "capacity reclaimed")
}

func TestZeroRemainingFlowCompletes(t *testing.T) {
	e := New(0.001)
	r := e.AddResource("r", 10)
	done := false
	e.StartFlow(&Flow{Remaining: 0, Demands: []Demand{{r, 1}}, OnDone: func() { done = true }})
	e.Step()
	if !done {
		t.Fatal("zero-length flow should complete immediately")
	}
}

// TestStartFlowTwiceRunsTwoFlows: StartFlow copies its Flow, so starting one
// value twice runs two independent flows, each doing the work and firing
// OnDone once.
func TestStartFlowTwiceRunsTwoFlows(t *testing.T) {
	usage := func(starts int) (float64, int) {
		e := New(0.001)
		r := e.AddResource("r", 10)
		done := 0
		f := &Flow{Remaining: 0.5, Demands: []Demand{{r, 1}}, OnDone: func() { done++ }}
		for i := 0; i < starts; i++ {
			e.StartFlow(f)
		}
		if e.ActiveFlows() != starts {
			t.Fatalf("%d starts left %d flows active", starts, e.ActiveFlows())
		}
		e.Run(1)
		if e.CompletedFlows() != uint64(starts) {
			t.Fatalf("%d starts completed %d flows", starts, e.CompletedFlows())
		}
		return e.ResourceUsage(r), done
	}
	once, doneOnce := usage(1)
	twice, doneTwice := usage(2)
	if doneOnce != 1 || doneTwice != 2 {
		t.Fatalf("OnDone fired %d and %d times, want 1 and 2", doneOnce, doneTwice)
	}
	almost(t, twice, 2*once, 1e-12, "usage of two starts")
}

// TestStartFlowCopiesFlow: the engine keeps no part of the caller's Flow. A
// run that overwrites every field of each Flow it starts, and the elements of
// its Demands, right after StartFlow returns has the rates, the resource
// usage, the order of OnAdvance and OnDone calls and the completions of a run
// that leaves them untouched. One OnDone starts a further flow, which is
// overwritten too.
func TestStartFlowCopiesFlow(t *testing.T) {
	type result struct {
		rates     []float64
		usage     []float64
		events    []string
		completed uint64
	}
	run := func(overwrite bool) result {
		var res result
		e := New(0.001)
		mc := e.AddResource("mc", 100)
		link := e.AddResource("link", 25)
		note := func(format string, args ...any) { res.events = append(res.events, fmt.Sprintf(format, args...)) }
		var launch func(i int)
		launch = func(i int) {
			f := &Flow{Remaining: float64(5 + 3*i), Demands: []Demand{{mc, 1}}}
			if i%2 == 0 {
				f.Demands = append(f.Demands, Demand{link, 1.5})
			}
			if i%3 == 0 {
				f.RateCap = float64(4 + i)
			}
			f.OnAdvance = func(p float64) { note("advance %d by %v", i, p) }
			f.OnDone = func() {
				note("done %d", i)
				if i == 1 {
					launch(6)
				}
			}
			e.StartFlow(f)
			if overwrite {
				for k := range f.Demands {
					f.Demands[k] = Demand{link, 1000}
				}
				*f = Flow{Remaining: 1e12, RateCap: 1e-3, Demands: []Demand{{mc, 50}},
					OnAdvance: func(float64) { note("caller's OnAdvance") },
					OnDone:    func() { note("caller's OnDone") }}
			}
		}
		for i := 0; i < 6; i++ {
			launch(i)
		}
		for e.ActiveFlows() > 0 && e.Now() < 10 {
			e.Step()
			res.rates = append(res.rates, rates(e)...)
		}
		res.usage = []float64{e.ResourceUsage(mc), e.ResourceUsage(link)}
		res.completed = e.CompletedFlows()
		return res
	}
	want, got := run(false), run(true)
	if want.completed != 7 {
		t.Fatalf("untouched run completed %d flows, want 7", want.completed)
	}
	if got.completed != want.completed {
		t.Fatalf("completed %d flows, untouched %d", got.completed, want.completed)
	}
	if !slices.Equal(got.usage, want.usage) {
		t.Fatalf("usage %v, untouched %v", got.usage, want.usage)
	}
	if !slices.Equal(got.rates, want.rates) {
		t.Fatalf("rates %v, untouched %v", got.rates, want.rates)
	}
	if !slices.Equal(got.events, want.events) {
		t.Fatalf("callbacks %q, untouched %q", got.events, want.events)
	}
}

// TestCallerFlowAllocs: the engine keeps no reference to a caller's Flow, so
// a Flow literal built for each start stays on the caller's stack. On a warm
// engine, starting one (a stream on a resource and a think-time delay) and
// stepping it to completion allocates nothing. The callback is made once,
// outside the measured loop, as a client makes its own, and the stream's
// Demands come from a buffer the caller keeps: escape analysis treats all
// that a *Flow points to as one location, so a Demands literal written in the
// call would escape with the callback.
func TestCallerFlowAllocs(t *testing.T) {
	e := New(1e-3)
	r := e.AddResource("r", 100)
	demands := []Demand{{r, 1}}
	done := 0
	onDone := func() { done++ }
	run := func() {
		e.StartFlow(&Flow{Remaining: 0.25, RateCap: 50, Demands: demands, OnDone: onDone})
		e.StartFlow(&Flow{Remaining: 2e-3, RateCap: 1, OnDone: onDone})
		for e.ActiveFlows() > 0 {
			e.Step()
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("a caller-built flow allocates %v times per start, want 0", n/2)
	}
	if done != 2*102 {
		t.Fatalf("%d flows done, want %d", done, 2*102)
	}
}

func TestAddResourceRejectsNonPositive(t *testing.T) {
	e := New(0.001)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	e.AddResource("bad", 0)
}

func TestNewRejectsNonPositiveStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero step")
		}
	}()
	New(0)
}

func TestOnAdvanceReportsProgress(t *testing.T) {
	e := New(0.01)
	r := e.AddResource("r", 100)
	total := 0.0
	e.StartFlow(&Flow{
		Remaining: 5,
		Demands:   []Demand{{r, 1}},
		OnAdvance: func(p float64) { total += p },
	})
	e.Run(0.1)
	almost(t, total, 5, 1e-9, "progress sum equals work")
}

func TestUsageMatchesWeightedProgress(t *testing.T) {
	e := New(0.01)
	r1 := e.AddResource("r1", 1000)
	r2 := e.AddResource("r2", 1000)
	e.StartFlow(&Flow{Remaining: 10, Demands: []Demand{{r1, 1}, {r2, 2.5}}})
	e.Run(0.2)
	almost(t, e.ResourceUsage(r1), 10, 1e-9, "r1 usage")
	almost(t, e.ResourceUsage(r2), 25, 1e-9, "r2 usage")
}

func TestNowDoesNotDrift(t *testing.T) {
	e := New(1e-5)
	e.Run(1.0)
	if e.Now() != 1.0 {
		t.Fatalf("now = %v after 1s of 10us steps", e.Now())
	}
	if e.Steps() != 100000 {
		t.Fatalf("steps = %d", e.Steps())
	}
}

// Property: total weighted throughput on a single shared resource never
// exceeds capacity and is work-conserving when enough demand exists.
func TestSingleResourceSaturationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		e := New(0.001)
		cap := 10 + rng.f64()*1000
		r := e.AddResource("r", cap)
		n := 2 + rng.intn(20)
		sumCaps := 0.0
		for i := 0; i < n; i++ {
			fl := &Flow{Remaining: 1e12, Demands: []Demand{{r, 1}}}
			if rng.intn(2) == 0 {
				fl.RateCap = 1 + rng.f64()*cap
			}
			if fl.RateCap > 0 {
				sumCaps += fl.RateCap
			} else {
				sumCaps += math.Inf(1)
			}
			e.StartFlow(fl)
		}
		e.Step()
		// Recompute from usage after one step.
		used := e.ResourceUsage(r) / 0.001
		if used > cap*(1+1e-9) {
			return false
		}
		want := math.Min(cap, sumCaps)
		return math.Abs(used-want) <= want*1e-9+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
