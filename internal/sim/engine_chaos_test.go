package sim

import "testing"

// A capacity write takes effect at the very next allocation: the allocator
// re-reads capacities every step, so fault injection can throttle a resource
// mid-run without touching any flow state.
func TestSetResourceCapacityTakesEffectNextStep(t *testing.T) {
	e := New(0.001)
	r := e.AddResource("mc", 100)
	f := start(e, &Flow{Remaining: 1e9, Demands: []Demand{{r, 1}}})
	e.Step()
	almost(t, f.Rate(), 100, 1e-9, "nominal rate")

	e.SetResourceCapacity(r, 30)
	if got := e.ResourceCapacity(r); got != 30 {
		t.Fatalf("capacity readback: got %v, want 30", got)
	}
	e.Step()
	almost(t, f.Rate(), 30, 1e-9, "throttled rate")

	e.SetResourceCapacity(r, 100)
	e.Step()
	almost(t, f.Rate(), 100, 1e-9, "restored rate")
}

func TestSetResourceCapacityRejectsNonPositive(t *testing.T) {
	e := New(0.001)
	r := e.AddResource("mc", 100)
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity should panic")
		}
	}()
	e.SetResourceCapacity(r, 0)
}
