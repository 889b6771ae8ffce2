package join

import (
	"testing"
	"testing/quick"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/exec"
	"numacs/internal/topology"
)

func col(name string, vals []int64) *colstore.Column { return colstore.Build(name, vals, false) }

func TestHashJoinSmall(t *testing.T) {
	build := col("dim", []int64{10, 20, 30})
	probe := col("fact", []int64{20, 10, 20, 99})
	pairs := HashJoin(build, probe)
	want := []Pair{{1, 0}, {0, 1}, {1, 2}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", pairs, want)
		}
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	build := col("dim", []int64{7, 7, 8})
	probe := col("fact", []int64{7})
	pairs := HashJoin(build, probe)
	if len(pairs) != 2 {
		t.Fatalf("dup keys: %v", pairs)
	}
	seen := map[uint32]bool{}
	for _, p := range pairs {
		if build.Value(int(p.BuildRow)) != 7 || p.ProbeRow != 0 {
			t.Fatalf("bad pair %v", p)
		}
		seen[p.BuildRow] = true
	}
	if len(seen) != 2 {
		t.Fatal("missing one duplicate build row")
	}
}

func TestHashTableProbeAbsent(t *testing.T) {
	ht := BuildHashTable(col("d", []int64{1, 2, 3}))
	if got := ht.ProbeValue(42, nil); len(got) != 0 {
		t.Fatalf("absent key matched: %v", got)
	}
	if ht.Entries() != 3 {
		t.Fatalf("entries = %d", ht.Entries())
	}
	if ht.SizeBytes() <= 0 {
		t.Fatal("size not accounted")
	}
}

// Property: hash join equals nested-loop join on random data.
func TestHashJoinMatchesNestedLoopProperty(t *testing.T) {
	f := func(seed uint32) bool {
		s := seed
		next := func(mod int64) int64 {
			s = s*1664525 + 1013904223
			return int64(s) % mod
		}
		bvals := make([]int64, 40+int(seed%40))
		for i := range bvals {
			bvals[i] = next(30)
		}
		pvals := make([]int64, 60+int(seed%30))
		for i := range pvals {
			pvals[i] = next(40)
		}
		build, probe := col("b", bvals), col("p", pvals)
		got := HashJoin(build, probe)
		var want []Pair
		for pi, pv := range pvals {
			for bi, bv := range bvals {
				if bv == pv {
					want = append(want, Pair{uint32(bi), uint32(pi)})
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		// Same multiset, probe-major order; within a probe row the order of
		// build rows may differ (hash order), so compare per probe row.
		byProbe := func(ps []Pair) map[uint32]map[uint32]int {
			m := map[uint32]map[uint32]int{}
			for _, p := range ps {
				if m[p.ProbeRow] == nil {
					m[p.ProbeRow] = map[uint32]int{}
				}
				m[p.ProbeRow][p.BuildRow]++
			}
			return m
		}
		g, w := byProbe(got), byProbe(want)
		if len(g) != len(w) {
			return false
		}
		for pr, rows := range w {
			if len(g[pr]) != len(rows) {
				return false
			}
			for br, n := range rows {
				if g[pr][br] != n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// ---- simulated execution ------------------------------------------------------

func placedColumns(e *core.Engine, rows int) (build, probe *colstore.Column) {
	bvals := make([]int64, rows/4)
	pvals := make([]int64, rows)
	s := uint32(5)
	for i := range bvals {
		s = s*1664525 + 1013904223
		bvals[i] = int64(s % 10000)
	}
	for i := range pvals {
		s = s*1664525 + 1013904223
		pvals[i] = int64(s % 10000)
	}
	build = colstore.Build("DIM", bvals, false)
	probe = colstore.Build("FACT", pvals, false)
	e.Placer.PlaceIVP(build, []int{0, 1, 2, 3})
	e.Placer.PlaceIVP(probe, []int{0, 1, 2, 3})
	return build, probe
}

// runJoin starts the bare build/probe operator under Bound as a raw
// pipeline on e's environment: one hit per probe row, the hash table on
// htSockets (empty: the build column's majority socket), and no per-query
// overhead, admission or concurrency-hint accounting.
func runJoin(e *core.Engine, build, probe *colstore.Column, htSockets []int, onDone func(float64)) {
	j := &exec.JoinOp{
		Build: build, Probe: probe, HTSockets: htSockets,
		HitsPerProbeRow: 1, Alloc: e.Placer.Alloc,
	}
	p := &exec.Pipeline{
		Env: e.ExecEnv(), Strategy: core.Bound, IssuedAt: e.Sim.Now(),
		Ops: []exec.Operator{j.BuildOp(), j.ProbeOp()}, OnDone: onDone,
	}
	p.Start()
}

func TestSimulatedJoinCompletes(t *testing.T) {
	e := core.New(topology.FourSocketIvyBridge(), 1)
	build, probe := placedColumns(e, 80000)
	resident := func() int64 {
		total := int64(0)
		for s := 0; s < 4; s++ {
			total += e.Placer.Alloc.BytesOnSocket(s)
		}
		return total
	}
	before := resident()
	done := false
	runJoin(e, build, probe, nil, func(float64) { done = true })
	if resident() <= before {
		t.Fatal("hash table not allocated")
	}
	e.Sim.Run(0.3)
	if !done {
		t.Fatal("join did not complete")
	}
	if e.Counters.TotalMCBytes() <= 0 {
		t.Fatal("no traffic")
	}
	// Hash-table memory was freed after completion.
	if got := resident(); got != before {
		t.Fatalf("hash-table memory leaked: %d before, %d after", before, got)
	}
}

// The Section 8 design point: a partitioned hash table co-located with the
// build partitions beats a centralized table on one socket.
func TestPartitionedHashTableBeatsCentralized(t *testing.T) {
	run := func(htSockets []int) float64 {
		e := core.New(topology.FourSocketIvyBridge(), 1)
		build, probe := placedColumns(e, 120000)
		completed := 0
		var issue func()
		inflight := 0
		issue = func() {
			if inflight >= 32 {
				return
			}
			inflight++
			runJoin(e, build, probe, htSockets, func(float64) { completed++; inflight--; issue() })
		}
		for i := 0; i < 32; i++ {
			issue()
		}
		e.Sim.Run(0.3)
		return float64(completed)
	}
	central := run([]int{0})
	partitioned := run([]int{0, 1, 2, 3})
	if partitioned <= central {
		t.Fatalf("partitioned HT (%v joins) should beat centralized (%v)", partitioned, central)
	}
}

func TestJoinStrategyAffinities(t *testing.T) {
	e := core.New(topology.FourSocketIvyBridge(), 1)
	build, probe := placedColumns(e, 60000)
	done := false
	runJoin(e, build, probe, []int{0, 1, 2, 3}, func(float64) { done = true })
	e.Sim.Run(0.3)
	if !done {
		t.Fatal("join did not complete")
	}
	if e.Counters.TasksStolen != 0 {
		t.Fatalf("Bound join stole %d tasks", e.Counters.TasksStolen)
	}
	// Build+probe scans run on all four sockets.
	for s := 0; s < 4; s++ {
		if e.Counters.MCBytes[s] == 0 {
			t.Fatalf("socket %d idle during join", s)
		}
	}
}
