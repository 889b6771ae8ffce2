package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/exec"
	"numacs/internal/topology"
)

// TestWritersRateMixAndWindow: the write-mix actor must apply writes at the
// configured aggregate rate, honor the insert/update fraction and the
// active-window bounds, and land appends in the per-socket delta fragments
// of the chosen columns.
func TestWritersRateMixAndWindow(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := core.NewWithStep(m, 1, 20e-6)
	tbl := Generate(DatasetConfig{Rows: 10_000, Columns: 4, BitcaseMin: 10, BitcaseMax: 13, Seed: 1, Synthetic: true})
	e.Placer.PlaceRR(tbl)
	writeBytes := map[*colstore.Column]float64{}
	e.AttachItemTraffic(func(col *colstore.Column, _ int, t exec.Traffic) { writeBytes[col] += t.WriteBytes })
	w := NewWriters(e, tbl, WritersConfig{
		Rate: 100_000, UpdateFraction: 0.25,
		Chooser: HotColumnChoice{Hot: 1, P: 1},
		Start:   0.01, Stop: 0.03, Seed: 3,
	})
	e.Sim.AddActor(w)
	e.Sim.Run(0.05)

	applied := w.Inserts + w.Updates
	want := uint64(100_000 * 0.02) // active for 20ms
	if applied < want*99/100 || applied > want*101/100 {
		t.Fatalf("applied %d writes, want ~%d (rate x active window)", applied, want)
	}
	frac := float64(w.Updates) / float64(applied)
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("update fraction %.3f, want ~0.25", frac)
	}
	col := tbl.Parts[0].Columns[1]
	if col.Delta == nil || uint64(col.Delta.Rows()) != applied {
		t.Fatalf("delta rows %d != applied %d", col.DeltaRows(), applied)
	}
	for _, other := range []int{0, 2, 3} {
		if tbl.Parts[0].Columns[other].Delta != nil {
			t.Fatalf("column %d was never chosen but has a delta", other)
		}
	}
	// Appends spread across every socket's fragment by default.
	for s := 0; s < m.Sockets; s++ {
		if col.Delta.Fragment(s).Committed() == 0 {
			t.Fatalf("socket %d fragment empty", s)
		}
		if col.Delta.Fragment(s).Range.Bytes == 0 {
			t.Fatalf("socket %d fragment has no simulated allocation", s)
		}
	}
	// Write traffic reached the item-traffic accounting as write bytes.
	if wb := writeBytes[col]; wb <= 0 {
		t.Fatalf("no write traffic attributed: %v", wb)
	}
}

// TestWritersPinnedSockets: with Sockets configured, every append lands on a
// listed socket's fragment.
func TestWritersPinnedSockets(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := core.NewWithStep(m, 1, 20e-6)
	tbl := Generate(DatasetConfig{Rows: 10_000, Columns: 2, BitcaseMin: 10, BitcaseMax: 11, Seed: 1, Synthetic: true})
	e.Placer.PlaceRR(tbl)
	w := NewWriters(e, tbl, WritersConfig{
		Rate: 50_000, Chooser: HotColumnChoice{Hot: 0, P: 1}, Sockets: []int{2}, Seed: 3,
	})
	e.Sim.AddActor(w)
	e.Sim.Run(0.02)

	col := tbl.Parts[0].Columns[0]
	if col.Delta == nil || col.Delta.Rows() == 0 {
		t.Fatal("no writes applied")
	}
	for s := 0; s < m.Sockets; s++ {
		n := col.Delta.Fragment(s).Committed()
		if s == 2 && n == 0 {
			t.Fatal("pinned socket fragment empty")
		}
		if s != 2 && n != 0 {
			t.Fatalf("socket %d fragment has %d rows despite pinning", s, n)
		}
	}
}

func TestGenerateRealDataset(t *testing.T) {
	cfg := DatasetConfig{Rows: 5000, Columns: 10, BitcaseMin: 8, BitcaseMax: 12, Seed: 1}
	tbl := Generate(cfg)
	if tbl.Rows != 5000 || len(tbl.Parts[0].Columns) != 10 {
		t.Fatalf("shape: rows=%d cols=%d", tbl.Rows, len(tbl.Parts[0].Columns))
	}
	// Bitcases cycle; dictionary-minimal bitcase never exceeds the domain's.
	for j, c := range tbl.Parts[0].Columns {
		want := cfg.BitcaseMin + uint(j%5)
		if c.Bitcase > want {
			t.Fatalf("column %d bitcase %d exceeds domain bitcase %d", j, c.Bitcase, want)
		}
		if c.Rows != 5000 {
			t.Fatalf("column %d rows = %d", j, c.Rows)
		}
		// Values in domain.
		for r := 0; r < 100; r++ {
			if v := c.Value(r); v < 0 || v >= 1<<want {
				t.Fatalf("column %d value %d out of domain", j, v)
			}
		}
	}
}

func TestGenerateSyntheticMatchesRealSizes(t *testing.T) {
	real := Generate(DatasetConfig{Rows: 20000, Columns: 4, BitcaseMin: 10, BitcaseMax: 13, Seed: 1})
	synth := Generate(DatasetConfig{Rows: 20000, Columns: 4, BitcaseMin: 10, BitcaseMax: 13, Seed: 1, Synthetic: true})
	for j := range real.Parts[0].Columns {
		r, s := real.Parts[0].Columns[j], synth.Parts[0].Columns[j]
		if s.Bitcase != r.Bitcase {
			t.Errorf("column %d: synthetic bitcase %d, real %d", j, s.Bitcase, r.Bitcase)
		}
		// Dictionary sizes should agree within a few percent (expected vs
		// realized distinct count).
		rd, sd := float64(r.NumDistinct()), float64(s.NumDistinct())
		if sd < rd*0.95 || sd > rd*1.05 {
			t.Errorf("column %d: synthetic distinct %v, real %v", j, sd, rd)
		}
		if !s.Synthetic {
			t.Error("synthetic flag not set")
		}
	}
}

func TestGenerateWithIndex(t *testing.T) {
	tbl := Generate(DatasetConfig{Rows: 2000, Columns: 2, BitcaseMin: 8, BitcaseMax: 8, Seed: 2, WithIndex: true})
	for _, c := range tbl.Parts[0].Columns {
		if c.Idx == nil {
			t.Fatal("index missing")
		}
	}
}

func TestExpectedDistinct(t *testing.T) {
	if got := colstore.ExpectedDistinct(1000, 10); got != 10 {
		t.Fatalf("large n small domain: %d", got)
	}
	if got := colstore.ExpectedDistinct(10, 1<<30); got != 10 {
		t.Fatalf("huge domain: %d", got)
	}
	if got := colstore.ExpectedDistinct(100, 0); got != 1 {
		t.Fatalf("degenerate domain: %d", got)
	}
	mid := colstore.ExpectedDistinct(1000, 1000)
	if mid <= 500 || mid >= 1000 {
		t.Fatalf("n==d should land around 632, got %d", mid)
	}
}

func TestUniformChoiceCoversColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		c := (UniformChoice{}).Pick(rng, 8)
		if c < 0 || c >= 8 {
			t.Fatalf("pick out of range: %d", c)
		}
		seen[c] = true
	}
	if len(seen) != 8 {
		t.Fatalf("uniform chooser covered %d of 8 columns", len(seen))
	}
}

func TestSkewedChoiceDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ch := SkewedChoice{HotProb: 0.8}
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if ch.Pick(rng, 16) >= 8 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("hot fraction = %.3f, want ~0.8", frac)
	}
}

func TestClientsClosedLoop(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := core.New(m, 1)
	tbl := Generate(DatasetConfig{Rows: 30000, Columns: 8, BitcaseMin: 10, BitcaseMax: 14, Seed: 1, Synthetic: true})
	e.Placer.PlaceRR(tbl)
	c := NewClients(e, tbl, ClientsConfig{
		N: 16, Selectivity: 0.001, Parallel: true, Strategy: core.Bound, Seed: 3,
	})
	c.Start()
	if c.Issued != 16 {
		t.Fatalf("issued %d, want 16 on start", c.Issued)
	}
	e.Sim.Run(0.05)
	if e.Counters.QueriesDone == 0 {
		t.Fatal("no queries completed")
	}
	// Closed loop: completions trigger re-issues.
	if c.Issued <= 16 {
		t.Fatalf("closed loop did not re-issue: issued=%d done=%d", c.Issued, e.Counters.QueriesDone)
	}
	// In-flight = issued - done = N (every client always has one query out).
	if int(c.Issued)-int(e.Counters.QueriesDone) != 16 {
		t.Fatalf("in-flight = %d, want 16", int(c.Issued)-int(e.Counters.QueriesDone))
	}
}

// TestClientsAllocs pins the heap allocations of a closed-loop client
// population once warm: each client's callbacks are made once, at Start,
// and the engine keeps no reference to a client's Query, so issuing,
// running and completing 100 statements allocates nothing.
func TestClientsAllocs(t *testing.T) {
	e := core.New(topology.FourSocketIvyBridge(), 1)
	tbl := Generate(DatasetConfig{Rows: 30000, Columns: 8, BitcaseMin: 10, BitcaseMax: 14, Seed: 1, Synthetic: true})
	e.Placer.PlaceRR(tbl)
	c := NewClients(e, tbl, ClientsConfig{
		N: 4, Selectivity: 0.001, Parallel: true, Strategy: core.Bound, Seed: 3,
	})
	c.Start()
	run := func() {
		for until := c.Issued + 100; c.Issued < until; {
			e.Sim.Step()
		}
	}
	for i := 0; i < 10; i++ {
		run() // plan every column's shape, make the records and grow the buffers
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Errorf("100 closed-loop statements allocate %v times, want 0", n)
	}
}

// TestNewWritersRejectsBadConfigs: NewWriters panics on a config the writers
// cannot run, with a message that names the problem, instead of failing mid
// simulation (a socket outside the machine indexed the delta fragments, and
// an infinite or NaN Rate sized a write slice from int(+Inf)). The test
// only calls NewWriters; no bad config ever ticks.
func TestNewWritersRejectsBadConfigs(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 25e-6)
	tbl := Generate(DatasetConfig{Rows: 1000, Columns: 2, BitcaseMin: 10, BitcaseMax: 10, Seed: 1, Synthetic: true})
	e.Placer.PlaceRR(tbl)
	for _, tc := range []struct {
		cfg  WritersConfig
		want string
	}{
		{WritersConfig{Rate: math.Inf(1)}, "Rate +Inf is not a finite non-negative number"},
		{WritersConfig{Rate: math.NaN()}, "Rate NaN is not a finite non-negative number"},
		{WritersConfig{Rate: -1}, "Rate -1 is not a finite non-negative number"},
		{WritersConfig{Rate: 1e300}, "asks for 2.5e+295 writes per 2.5e-05s step, more than 1048576"},
		{WritersConfig{Rate: 1e3, UpdateFraction: 1.5}, "UpdateFraction 1.5 is outside [0, 1]"},
		{WritersConfig{Rate: 1e3, UpdateFraction: -0.1}, "UpdateFraction -0.1 is outside [0, 1]"},
		{WritersConfig{Rate: 1e3, UpdateFraction: math.NaN()}, "UpdateFraction NaN is outside [0, 1]"},
		{WritersConfig{Rate: 1e3, Sockets: []int{0, 4}}, "socket 4 is outside the machine's 4 sockets"},
		{WritersConfig{Rate: 1e3, Sockets: []int{-1}}, "socket -1 is outside the machine's 4 sockets"},
		{WritersConfig{Rate: 1e3, Start: math.NaN()}, "window [NaN, 0) is not finite"},
		{WritersConfig{Rate: 1e3, Stop: math.Inf(1)}, "window [0, +Inf) is not finite"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("NewWriters(%+v) panicked with %q, want it to name %q", tc.cfg, msg, tc.want)
				}
			}()
			NewWriters(e, tbl, tc.cfg)
		})
	}
	// The edges of every range are valid.
	NewWriters(e, tbl, WritersConfig{Rate: 0})
	NewWriters(e, tbl, WritersConfig{Rate: 1 << 20 / 25e-6, UpdateFraction: 1, Sockets: []int{0, 3}})
}
