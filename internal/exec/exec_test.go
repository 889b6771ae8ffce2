package exec

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/placement"
	"numacs/internal/sched"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

func TestAffinityFor(t *testing.T) {
	cases := []struct {
		strategy Strategy
		socket   int
		affinity int
		hard     bool
	}{
		{OSched, 2, -1, false},
		{OSched, -1, -1, false},
		{Target, 2, 2, false},
		{Target, 0, 0, false},
		{Target, -1, -1, false},
		{Bound, 2, 2, true},
		{Bound, 0, 0, true},
		{Bound, -1, -1, false},
	}
	for _, c := range cases {
		a, h := AffinityFor(c.strategy, c.socket)
		if a != c.affinity || h != c.hard {
			t.Errorf("AffinityFor(%s, %d) = (%d, %v), want (%d, %v)",
				c.strategy, c.socket, a, h, c.affinity, c.hard)
		}
	}
}

// testEnv builds a bare Env over a fresh 4-socket machine.
func testEnv() *Env {
	m := topology.FourSocketIvyBridge()
	s := sim.New(20e-6)
	h := hw.New(s, m)
	c := metrics.New(m.Sockets)
	sc := sched.New(h, c)
	s.AddActor(sc)
	costs := DefaultCosts()
	return &Env{Machine: m, Sim: s, HW: h, Sched: sc, Counters: c, Costs: &costs}
}

// TestAffinityDerivationAcrossPlacements covers the acceptance matrix:
// OS/Target/Bound x RR/IVP/PP placements. The partition fan-out must resolve
// every partition to the socket its pages live on, and the strategy must turn
// that socket into the right (affinity, hard) pair.
func TestAffinityDerivationAcrossPlacements(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	p := placement.New(m)

	check := func(name string, col *colstore.Column, wantSockets []int) {
		t.Helper()
		parts := Partitions(col)
		if len(wantSockets) > 0 && len(parts) != len(wantSockets) {
			t.Fatalf("%s: %d partitions, want %d", name, len(parts), len(wantSockets))
		}
		for i, pr := range parts {
			if len(wantSockets) > 0 && pr.Socket != wantSockets[i] {
				t.Errorf("%s partition %d on socket %d, want %d", name, i, pr.Socket, wantSockets[i])
			}
			for _, st := range []Strategy{OSched, Target, Bound} {
				a, h := AffinityFor(st, pr.Socket)
				switch st {
				case OSched:
					if a != -1 || h {
						t.Errorf("%s/OS: affinity (%d,%v)", name, a, h)
					}
				case Target:
					if a != pr.Socket || h {
						t.Errorf("%s/Target: affinity (%d,%v), want (%d,false)", name, a, h, pr.Socket)
					}
				case Bound:
					if a != pr.Socket || !h {
						t.Errorf("%s/Bound: affinity (%d,%v), want (%d,true)", name, a, h, pr.Socket)
					}
				}
			}
		}
	}

	// RR: the whole column on one socket — a single partition there.
	rr := colstore.NewSynthetic("RR", 40_000, 1<<12, false)
	p.PlaceColumnOnSocket(rr, 2)
	check("RR", rr, []int{2})

	// IVP: four IV partitions, one per socket.
	ivp := colstore.NewSynthetic("IVP", 40_000, 1<<12, false)
	p.PlaceIVP(ivp, []int{0, 1, 2, 3})
	check("IVP", ivp, []int{0, 1, 2, 3})

	// PP: each physical part is a column placed wholly on its socket.
	ppTable := colstore.NewTable("PP", []*colstore.Column{colstore.NewSynthetic("C", 40_000, 1<<12, false)})
	pp := p.PlacePP(ppTable, 4)
	for pi, part := range pp.Parts {
		check("PP", part.Columns[0], []int{part.HomeSocket})
		_ = pi
	}

	// Replicated: one slice per replica, each on its replica's socket.
	rep := colstore.NewSynthetic("REP", 40_000, 1<<12, false)
	p.PlaceReplicated(rep, []int{1, 3})
	check("replicated", rep, []int{1, 3})
}

// TestPartitionsWeightedSpreadsByMCLoad: a replicated column's row slices
// must shrink on loaded sockets and grow on idle ones, while still covering
// the whole row space contiguously with every replica participating.
func TestPartitionsWeightedSpreadsByMCLoad(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	p := placement.New(m)
	rep := colstore.NewSynthetic("REP", 40_000, 1<<12, false)
	p.PlaceReplicated(rep, []int{0, 2})

	even := PartitionsWeighted(nil, rep, nil)
	if len(even) != 2 || even[0].To-even[0].From != even[1].To-even[1].From {
		t.Fatalf("nil load must split evenly: %+v", even)
	}

	loaded := PartitionsWeighted(nil, rep, []float64{9, 0, 0, 0}) // socket 0 saturated
	if len(loaded) != 2 {
		t.Fatalf("want 2 slices, got %+v", loaded)
	}
	if loaded[0].Socket != 0 || loaded[1].Socket != 2 {
		t.Fatalf("slices on wrong sockets: %+v", loaded)
	}
	s0 := loaded[0].To - loaded[0].From
	s2 := loaded[1].To - loaded[1].From
	if s0 == 0 || s2 == 0 {
		t.Fatalf("every replica must keep a slice: %+v", loaded)
	}
	if s0*2 >= s2 {
		t.Fatalf("loaded socket slice %d not well below idle slice %d", s0, s2)
	}
	if loaded[0].From != 0 || loaded[0].To != loaded[1].From || loaded[1].To != rep.Rows {
		t.Fatalf("slices not contiguous over the row space: %+v", loaded)
	}
}

// TestBestReplica pins replica-choice behavior: a worker on a replica socket
// always uses the local copy, an idle machine yields the nearest copy, and a
// loaded memory controller diverts remote workers to the copy with headroom.
func TestBestReplica(t *testing.T) {
	m := topology.EightSocketWestmere()
	s := sim.New(20e-6)
	h := hw.New(s, m)
	c := metrics.New(m.Sockets)
	costs := DefaultCosts()
	env := &Env{Machine: m, Sim: s, HW: h, Sched: sched.New(h, c), Counters: c, Costs: &costs}

	col := &colstore.Column{ReplicaSockets: []int{0, 5}}
	// Socket 1 is in box A: replica 0 is one hop, replica 5 is cross-box.
	if got := BestReplica(env, col, 1); got != 0 {
		t.Fatalf("idle nearest from 1 = %d, want 0", got)
	}
	if got := BestReplica(env, col, 6); got != 5 {
		t.Fatalf("idle nearest from 6 = %d, want 5", got)
	}
	if got := BestReplica(env, col, 5); got != 5 {
		t.Fatalf("replica-local = %d, want 5", got)
	}
	// Saturate MC[0]: remote workers divert to the socket-5 copy, but a
	// worker on socket 0 still uses its local copy.
	s.StartFlow(&sim.Flow{Remaining: 1e12, Demands: []sim.Demand{{Resource: h.MC[0], Weight: 50}}})
	if got := BestReplica(env, col, 1); got != 5 {
		t.Fatalf("loaded MC[0]: from 1 = %d, want 5", got)
	}
	if got := BestReplica(env, col, 0); got != 0 {
		t.Fatalf("loaded MC[0]: local worker = %d, want 0", got)
	}
	if got := BestReplica(env, &colstore.Column{}, 1); got != -1 {
		t.Fatalf("unreplicated column = %d, want -1", got)
	}
}

func TestSplitRows(t *testing.T) {
	spans := SplitRows(nil, 100, 200, 4)
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0][0] != 100 || spans[3][1] != 200 {
		t.Fatalf("bad bounds: %v", spans)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] != spans[i-1][1] {
			t.Fatalf("gap between spans: %v", spans)
		}
	}
	// More tasks than rows: clamp to one row per task.
	if got := len(SplitRows(nil, 0, 3, 10)); got != 3 {
		t.Fatalf("clamped spans = %d, want 3", got)
	}
	if SplitRows(nil, 5, 5, 4) != nil {
		t.Fatal("empty range should yield no spans")
	}
}

// barrierOp records phase events and runs its tasks as simulated flows.
type barrierOp struct {
	name   string
	tasks  int
	delay  float64
	events *[]string
}

func (o *barrierOp) Open(p *Pipeline) []Task {
	*o.events = append(*o.events, o.name+".open")
	out := make([]Task, o.tasks)
	for i := range out {
		i := i
		out[i] = Task{Socket: i % p.Env.Machine.Sockets, Run: func(w *sched.Worker, done func()) {
			p.Env.Sim.StartFlow(&sim.Flow{
				Remaining: o.delay * float64(i+1), // staggered durations
				RateCap:   1,
				OnDone: func() {
					*o.events = append(*o.events, o.name+".task")
					done()
				},
			})
		}}
	}
	return out
}

func (o *barrierOp) Close(*Pipeline) {
	*o.events = append(*o.events, o.name+".close")
}

// TestPipelineBarrierOrdering asserts the pipeline's phase contract: all of
// phase A's tasks complete before A closes, A closes before B opens, and the
// pipeline's OnDone fires last with the statement latency.
func TestPipelineBarrierOrdering(t *testing.T) {
	env := testEnv()
	var events []string
	a := &barrierOp{name: "A", tasks: 5, delay: 1e-4, events: &events}
	b := &barrierOp{name: "B", tasks: 3, delay: 1e-4, events: &events}
	doneLat := -1.0
	p := &Pipeline{
		Env: env, Strategy: Bound, IssuedAt: env.Sim.Now(),
		Ops:    []Operator{a, b},
		OnDone: func(lat float64) { events = append(events, "done"); doneLat = lat },
	}
	p.Start()
	env.Sim.Run(0.5)

	want := []string{
		"A.open", "A.task", "A.task", "A.task", "A.task", "A.task", "A.close",
		"B.open", "B.task", "B.task", "B.task", "B.close", "done",
	}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q (all: %v)", i, events[i], want[i], events)
		}
	}
	if doneLat <= 0 {
		t.Fatalf("latency %f not positive", doneLat)
	}
	if env.Counters.QueriesDone != 1 {
		t.Fatalf("QueriesDone = %d", env.Counters.QueriesDone)
	}
}

// TestPipelineEmptyPhases asserts operators producing no tasks still open,
// close, and advance the pipeline synchronously.
func TestPipelineEmptyPhases(t *testing.T) {
	env := testEnv()
	var events []string
	a := &barrierOp{name: "A", tasks: 0, events: &events}
	b := &barrierOp{name: "B", tasks: 0, events: &events}
	done := false
	p := &Pipeline{Env: env, Ops: []Operator{a, b}, OnDone: func(float64) { done = true }}
	p.Start()
	if !done {
		t.Fatal("empty pipeline should complete synchronously")
	}
	want := []string{"A.open", "A.close", "B.open", "B.close"}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

// TestPipelineHardTasksStayHome asserts Bound pipelines execute every task on
// its data's socket (no inter-socket steals), while Target permits them.
func TestPipelineHardTasksStayHome(t *testing.T) {
	env := testEnv()
	offSocket := 0
	op := &socketCheckOp{want: 1, offSocket: &offSocket}
	p := &Pipeline{Env: env, Strategy: Bound, Ops: []Operator{op}}
	p.Start()
	env.Sim.Run(0.05)
	if offSocket != 0 {
		t.Fatalf("%d Bound tasks ran off their socket", offSocket)
	}
}

type socketCheckOp struct {
	want      int
	offSocket *int
}

func (o *socketCheckOp) Open(p *Pipeline) []Task {
	out := make([]Task, 16)
	for i := range out {
		out[i] = Task{Socket: o.want, Run: func(w *sched.Worker, done func()) {
			if w.Socket() != o.want {
				*o.offSocket++
			}
			p.Env.Sim.StartFlow(&sim.Flow{Remaining: 1e-5, RateCap: 1, OnDone: done})
		}}
	}
	return out
}

func (o *socketCheckOp) Close(*Pipeline) {}
