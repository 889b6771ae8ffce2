package main

import (
	"numacs/internal/adaptive"
	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/join"
	"numacs/internal/sharedscan"
	"numacs/internal/workload"
)

// step is the simulator step of every workload (seconds of virtual time).
const step = 25e-6

// lowSel is the memory-bound scan selectivity of the paper's Figs. 1 and 8;
// highSel the materialization-dominated one of Figs. 17 and 18.
const (
	lowSel  = 1e-5
	highSel = 0.10
)

// workloadDef is one workload: how it is built, why it is in the benchmark,
// and the simulated windows it runs. Every workload runs on the 4-socket
// IvyBridge machine.
type workloadDef struct {
	Name  string
	Why   string
	Setup string
	// Warmup is simulated time run before the counters reset.
	Warmup float64
	// SimPerSecond is the measured simulated window per second of -seconds.
	// It is fixed, not timed, so the simulated results of a seed repeat
	// exactly; it is sized so one second of it costs about one host second
	// on a 2-vCPU x86 VM.
	SimPerSecond float64
	build        func(b *bed)
}

var workloads = []workloadDef{
	{
		Name:         "scan-mem",
		Why:          "memory-bound concurrent scans (Figs. 1, 8): loads sched.Tick, ScanOp.Open and psm per statement; bypasses cohorts, admission, placer and writes",
		Setup:        "64 synthetic columns x 100k rows, RR placement, Bound; 256 closed-loop clients, uniform column, selectivity 0.001%",
		Warmup:       0.05,
		SimPerSecond: 0.1,
		build: func(b *bed) {
			t := paperTable(b, 100_000, 64, 21)
			b.e.Placer.PlaceRR(t)
			b.closedLoop(scanLoad{
				table: t, choose: workload.UniformChoice{}, sel: lowSel,
				strategy: core.Bound, clients: 256,
			})
		},
	},
	{
		Name:         "mat-skew",
		Why:          "materialization-dominated skewed scans (Figs. 17, 18): 8 tasks per statement, stealing and remote lines; same layers as scan-mem used differently",
		Setup:        "64 synthetic columns x 100k rows, IVP4 placement, Target; 64 closed-loop clients, 80/20 column skew, selectivity 10%",
		Warmup:       0.05,
		SimPerSecond: 0.1,
		build: func(b *bed) {
			t := paperTable(b, 100_000, 64, 21)
			b.e.Placer.PlaceRR(t)
			b.e.Placer.PlaceTableIVP(t, 4)
			b.closedLoop(scanLoad{
				table: t, choose: workload.SkewedChoice{HotProb: 0.8}, sel: highSel,
				strategy: core.Target, clients: 64,
			})
		},
	},
	{
		Name:         "shared-star",
		Why:          "cheap statements where planning, allocation and GC dominate: scan cohorts on one hot column beside planned star joins",
		Setup:        "planner schema at 480k rows, IVP over 4 sockets, cohorts on; 32 closed-loop clients on one hot column + 8 closed-loop star-join clients",
		Warmup:       0.2,
		SimPerSecond: 0.5,
		build:        buildSharedStar,
	},
	{
		Name:         "rw-burst",
		Why:          "the only workload with admission, delta writes, merges and placer moves: open-loop tenants with bursts beside a writer",
		Setup:        "16 synthetic columns x 240k rows, RR placement, admission on; open-loop tenants alpha/bravo/greedy, 500k rows/s writer, adaptive placer",
		Warmup:       0.1,
		SimPerSecond: 0.2,
		build:        buildRWBurst,
	},
}

// findWorkload returns the named workload definition, or nil.
func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// paperTable generates the paper's synthetic integer table (bitcases cycling
// from 12 up to maxBitcase) for the run's seed.
func paperTable(b *bed, rows, cols int, maxBitcase uint) *colstore.Table {
	return workload.Generate(workload.DatasetConfig{
		Rows: rows, Columns: cols, BitcaseMin: 12, BitcaseMax: maxBitcase,
		Seed: b.seed, Synthetic: true,
	})
}

// buildSharedStar sets up the planner experiment's schema: a hot scanned
// column shared by cohorts, and a one-dimension star join whose statements
// collect statistics and are planned on every call.
func buildSharedStar(b *bed) {
	const rows = 480_000
	hot := colstore.NewTable("HOT", []*colstore.Column{
		colstore.NewSynthetic("H_VAL", rows, 1<<14, false),
	})
	dim := colstore.NewTable("DIM1", []*colstore.Column{
		colstore.NewSynthetic("D1_DATE", rows/4, 1<<12, false),
		colstore.NewSynthetic("D1_ID", rows/4, 1<<14, false),
	})
	fact := colstore.NewTable("FACT", []*colstore.Column{
		colstore.NewSynthetic("F_FK1", rows, 1<<14, false),
	})
	sockets := []int{0, 1, 2, 3}
	for _, t := range []*colstore.Table{hot, dim, fact} {
		for _, c := range t.Parts[0].Columns {
			b.e.Placer.PlaceIVP(c, sockets)
		}
	}
	b.reg = b.e.EnableSharedScans(sharedscan.Config{})
	b.probe("sharedscan.tick_share")
	b.closedLoop(scanLoad{
		table: hot, choose: workload.FixedColumnChoice{Col: 0}, sel: lowSel,
		think: step, strategy: core.Bound, clients: 32,
	})
	b.starLoop(join.StarSpec{
		Dim: dim, DimPredicate: "D1_DATE", DimKey: "D1_ID",
		Fact: fact, FactFK: "F_FK1",
		Selectivity: 0.05, HitsPerProbeRow: 1,
		AggBytesPerRow: 12, AggCyclesPerRow: 24,
		HTSockets: []int{0}, Strategy: core.Bound,
	}, 8)
}

// rwCapacity is the statement capacity of the rw-burst dataset, in
// statements per simulated second: 64 closed-loop clients at selectivity
// 0.001%, Bound, no admission. Tenant rates are shares of it.
const rwCapacity = 284_200

// buildRWBurst sets up reads and writes under admission control: three scan
// tenants arrive open-loop (bravo in bursts), a writer tenant appends delta
// rows through the admission controller as Interactive statements, and the
// adaptive placer balances, merges and reclaims throughout. Offered load
// averages about 0.8x capacity and bravo's bursts peak near 1.05x, so the
// deadlines, which bound a stall, shed nothing. Heavier bursts or writes tip
// the engine into queueing whose p99.9 swings too much from seed to seed to
// bound a regression by.
func buildRWBurst(b *bed) {
	t := paperTable(b, 240_000, 16, 18)
	b.e.Placer.PlaceRR(t)
	b.e.EnableAdmission(admit.Config{
		Tenants: []admit.TenantSpec{
			{Name: "alpha", Weight: 2}, {Name: "bravo", Weight: 1},
			{Name: "greedy", Weight: 1}, {Name: "writer", Weight: 1},
		},
		MinConcurrent:       4,
		HighQueuePerWorker:  0.5,
		LowQueuePerWorker:   0.25,
		OLAPDeadline:        0.05,
		InteractiveDeadline: 0.02,
	})
	b.probe("admit.tick_share")
	b.openLoop(t, []*tenant{
		{name: "alpha", rate: 0.30 * rwCapacity},
		{name: "bravo", rate: 0.15 * rwCapacity, burstPeriod: 0.1, burstLen: 0.02, burstFactor: 3},
		{name: "greedy", rate: 0.30 * rwCapacity},
	})
	b.writers = workload.NewWriters(b.e, t, workload.WritersConfig{
		Rate: 5e5, UpdateFraction: 0.7, Chooser: workload.SkewedChoice{HotProb: 0.8},
		Tenant: "writer", Seed: b.seed,
	})
	b.addActor(b.writers, "workload.writers_tick_share")
	b.placer = adaptive.New(b.e, &adaptive.Catalog{Tables: []*colstore.Table{t}}, adaptive.DefaultConfig())
	b.addActor(b.placer, "adaptive.tick_share")
}
