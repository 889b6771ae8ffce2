// Package harness defines one reproducible experiment per table and figure
// of the paper's evaluation (Section 6) and renders the same rows/series the
// paper reports. The benchmark harness at the repository root and
// cmd/scanbench both drive this package.
package harness

import (
	"fmt"

	"numacs/internal/adaptive"
	"numacs/internal/admit"
	"numacs/internal/chaos"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/metrics"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
	"numacs/internal/trace"
	"numacs/internal/workload"
)

// MachineKind selects one of the paper's three servers.
type MachineKind int

const (
	// FourSocket is the paper's main 4-socket IvyBridge-EX machine (Table 1).
	FourSocket MachineKind = iota
	// EightSocket is the 8-socket broadcast-snoop Westmere-EX machine.
	EightSocket
	// SixteenSocket is half of the rack-scale machine (Section 6.3).
	SixteenSocket
	// ThirtyTwoSocket is the SGI UV 300 rack-scale machine.
	ThirtyTwoSocket
)

// String names the machine as the paper's evaluation does.
func (k MachineKind) String() string {
	switch k {
	case FourSocket:
		return "4S-IvybridgeEX"
	case EightSocket:
		return "8S-WestmereEX"
	case SixteenSocket:
		return "16S-IvybridgeEX"
	case ThirtyTwoSocket:
		return "32S-IvybridgeEX"
	default:
		return fmt.Sprintf("machine(%d)", int(k))
	}
}

// Build instantiates the machine description.
func (k MachineKind) Build() *topology.Machine {
	switch k {
	case FourSocket:
		return topology.FourSocketIvyBridge()
	case EightSocket:
		return topology.EightSocketWestmere()
	case SixteenSocket:
		return topology.SixteenSocketIvyBridge()
	case ThirtyTwoSocket:
		return topology.ThirtyTwoSocketIvyBridge()
	default:
		panic("harness: unknown machine")
	}
}

// PlacementKind is the data placement under test.
type PlacementKind int

const (
	// RR is round-robin whole-column placement (Section 4.1).
	RR PlacementKind = iota
	// IVP partitions the indexvector across sockets (Section 4.2).
	IVP
	// PP physically partitions table, dictionaries included (Section 4.2).
	PP
)

// PlacementSpec pairs a placement with its partition count (ignored for RR).
type PlacementSpec struct {
	Kind       PlacementKind
	Partitions int
}

// String renders the placement as the experiment tables label it (RR,
// IVP<n>, PP<n>).
func (p PlacementSpec) String() string {
	switch p.Kind {
	case RR:
		return "RR"
	case IVP:
		return fmt.Sprintf("IVP%d", p.Partitions)
	case PP:
		return fmt.Sprintf("PP%d", p.Partitions)
	default:
		return "?"
	}
}

// Spec fully describes one engine run of the harness. A paper-figure cell
// sets only the machine, dataset, placement, closed-loop clients and
// measurement protocol; every other experiment is a pair of Specs (control
// and treatment) that also enable engine layers and open-loop workload.
// Zero values mean "off" or "default" throughout.
type Spec struct {
	// Label names the configuration in reports.
	Label string `json:",omitempty"`

	Machine   MachineKind
	Dataset   workload.DatasetConfig
	Placement PlacementSpec
	// Replicas adds column copies right after placement.
	Replicas []Replica `json:",omitempty"`

	// Closed-loop scan clients (none when Clients is zero).
	Strategy    core.Strategy
	Clients     int
	Selectivity float64
	UseIndex    bool
	Parallel    bool
	// Skew selects the block layout for RR placement and, without a
	// Chooser, the 80/20 hot-column skew.
	Skew bool
	// Chooser picks the clients' columns (nil: uniform, or the 80/20 skew
	// under Skew); ClientSeed seeds them (zero: Seed+7).
	Chooser    workload.Chooser `json:"-"`
	ClientSeed int64            `json:",omitempty"`

	Warmup  float64 // virtual seconds before counters reset
	Measure float64 // virtual measurement window
	Step    float64 // simulator step; zero = core.DefaultStep
	Seed    int64
	// Windows, when positive, replaces warmup+measure: the run spans
	// Warmup+2*Measure in Windows equal reporting windows, read from the
	// flight recorder's sampler, and the counters are never reset.
	Windows int `json:",omitempty"`

	// Optional engine layers (nil or empty: off).
	Shared    *sharedscan.Config `json:",omitempty"`
	Admission *admit.Config      `json:",omitempty"`
	Placer    *adaptive.Config   `json:",omitempty"`
	Faults    []chaos.Event      `json:",omitempty"`

	// Open-loop tenants (seeded by TenantSeed) and writers.
	Tenants    []workload.TenantLoad   `json:",omitempty"`
	TenantSeed int64                   `json:",omitempty"`
	Writers    *workload.WritersConfig `json:",omitempty"`

	// Setup adds workload the fields above cannot express. It runs after
	// every layer is enabled and before the tenants, writers and clients
	// start; its table is nil when Dataset is zero.
	Setup func(e *core.Engine, t *colstore.Table) `json:"-"`

	// Ablation knobs.
	DisableHint     bool
	FIFOPriority    bool
	DisableCoalesce bool
	Costs           *core.Costs
}

// Replica places an extra copy of table column Column on Socket.
type Replica struct{ Column, Socket int }

// window returns the reporting-window length of a windowed Spec.
func (s Spec) window() float64 { return (s.Warmup + 2*s.Measure) / float64(s.Windows) }

// Result is the measured outcome of one engine run, mirroring the
// metrics the paper plots.
type Result struct {
	Spec Spec

	QPM         float64 // throughput in queries/minute
	CPULoad     float64 // 0..1
	Tasks       uint64
	Stolen      uint64
	LLCLocal    float64 // cache lines fetched locally
	LLCRemote   float64
	MemTP       []float64 // per-socket GiB/s
	MemTPTotal  float64
	IPC         float64
	QPIDataGiB  float64
	QPITotalGiB float64
	Latency     metrics.LatencyStats
	TableBytes  int64 // dataset footprint after placement (PP duplication)
	QueriesDone uint64

	// Window, Done and TP are a windowed run's series: the window length,
	// statements completed per window, and the same in q/min. Trace is its
	// flight-recorder data.
	Window float64     `json:",omitempty"`
	Done   []uint64    `json:",omitempty"`
	TP     []float64   `json:",omitempty"`
	Trace  *trace.Data `json:"-"`
}

// engineRun is one built engine with the actors its Spec asked for (nil
// when not configured), plus the Result once it has run. Experiments read
// their end state from it; it never lands in a Report, so sweeps do not keep
// engines alive.
type engineRun struct {
	Result
	E       *core.Engine
	Table   *colstore.Table
	Placer  *adaptive.Placer
	Tenants *workload.MultiTenant
	Writers *workload.Writers
}

// Run executes one experiment cell from scratch: build machine + engine,
// generate and place the dataset, admit clients, warm up, measure.
func Run(spec Spec) Result { return runEngine(spec).Result }

// runEngine builds the Spec's engine and runs it: warmup, counter reset and
// measurement, or the windowed horizon.
func runEngine(spec Spec) *engineRun {
	r := build(spec)
	e := r.E
	warmup, measure := spec.Warmup, spec.Measure
	if warmup == 0 {
		warmup = 0.05
	}
	if measure == 0 {
		measure = 0.25
	}
	if spec.Windows > 0 {
		window := spec.window()
		e.Sim.Run(float64(spec.Windows) * window)
		e.Trace.Sampler.Flush(e.Sim.Now())
		r.Window = window
		for _, smp := range e.Trace.Sampler.Samples() {
			r.Done = append(r.Done, smp.Delta.QueriesDone)
			r.TP = append(r.TP, float64(smp.Delta.QueriesDone)*60/window)
		}
		r.Trace = e.Trace.Data()
		measure = e.Sim.Now()
	} else {
		e.Sim.Run(warmup)
		e.Counters.Reset()
		if r.Tenants != nil {
			r.Tenants.ResetStats()
		}
		e.Sim.Run(warmup + measure)
	}

	c := e.Counters
	memTP := c.MemoryThroughputGiBs(measure)
	total := 0.0
	for _, v := range memTP {
		total += v
	}
	r.Spec = spec
	r.QPM = c.ThroughputQPM(measure)
	r.CPULoad = c.CPULoad(measure, e.Machine.TotalThreads())
	r.Tasks, r.Stolen = c.TasksExecuted, c.TasksStolen
	r.LLCLocal, r.LLCRemote = c.LLCLocal, c.LLCRemote
	r.MemTP, r.MemTPTotal = memTP, total
	r.IPC = c.IPC()
	r.QPIDataGiB = c.LinkDataBytes / (1 << 30)
	r.QPITotalGiB = c.LinkTotalBytes / (1 << 30)
	r.Latency = c.Latencies()
	r.QueriesDone = c.QueriesDone
	if r.Table != nil {
		r.TableBytes = r.Table.TotalBytes()
	}
	return r
}

// build instantiates the Spec's engine, dataset and workload without
// running it. The layers are enabled in one fixed order — tracing, shared
// scans, admission, placer, chaos, Setup, tenant generator, writers,
// closed-loop clients — because actor registration order is observable:
// actors tick in that order every step, and e.g. registering the writers
// before the tenant generator changes the admission experiment's outcome.
func build(spec Spec) *engineRun {
	step := spec.Step
	if step == 0 {
		step = core.DefaultStep
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	e := core.NewWithStep(spec.Machine.Build(), seed, step)
	if spec.Costs != nil {
		e.Costs = *spec.Costs
	}
	e.ConcurrencyHintEnabled = !spec.DisableHint
	e.Sched.IgnorePriority = spec.FIFOPriority
	e.DisableCoalesce = spec.DisableCoalesce
	r := &engineRun{E: e}

	if spec.Dataset.Rows != 0 || spec.Setup == nil {
		r.Table = placeDataset(e, spec)
		for _, rp := range spec.Replicas {
			e.Placer.AddReplica(r.Table.Parts[0].Columns[rp.Column], rp.Socket)
		}
	}
	if spec.Windows > 0 {
		e.EnableTracing(trace.Config{SampleInterval: spec.window()})
	}
	if spec.Shared != nil {
		e.EnableSharedScans(*spec.Shared)
	}
	if spec.Admission != nil {
		e.EnableAdmission(*spec.Admission)
	}
	if spec.Placer != nil {
		r.Placer = adaptive.New(e, &adaptive.Catalog{Tables: []*colstore.Table{r.Table}}, *spec.Placer)
		e.Sim.AddActor(r.Placer)
	}
	if len(spec.Faults) > 0 {
		e.EnableChaos(chaos.Config{Schedule: spec.Faults}, r.Table)
	}
	if spec.Setup != nil {
		spec.Setup(e, r.Table)
	}
	if len(spec.Tenants) > 0 {
		gen := workload.NewMultiTenant(e, r.Table, workload.MultiTenantConfig{Tenants: spec.Tenants, Seed: spec.TenantSeed})
		e.Sim.AddActor(gen)
		if e.Trace != nil {
			// Every sampled window carries per-tenant completed/shed deltas.
			e.Trace.Sampler.TenantCounts = func() []trace.TenantCount {
				stats := gen.Stats()
				out := make([]trace.TenantCount, len(stats))
				for i, ts := range stats {
					out[i] = trace.TenantCount{Name: ts.Name, Completed: ts.Completed, Shed: ts.Shed}
				}
				return out
			}
		}
		gen.Start()
		r.Tenants = gen
	}
	if spec.Writers != nil {
		r.Writers = workload.NewWriters(e, r.Table, *spec.Writers)
		e.Sim.AddActor(r.Writers)
	}
	if spec.Clients > 0 {
		chooser := spec.Chooser
		if chooser == nil {
			chooser = workload.UniformChoice{}
			if spec.Skew {
				chooser = workload.SkewedChoice{HotProb: 0.8}
			}
		}
		clientSeed := spec.ClientSeed
		if clientSeed == 0 {
			clientSeed = seed + 7
		}
		workload.NewClients(e, r.Table, workload.ClientsConfig{
			N:           spec.Clients,
			Selectivity: spec.Selectivity,
			UseIndex:    spec.UseIndex,
			Parallel:    spec.Parallel,
			Strategy:    spec.Strategy,
			Chooser:     chooser,
			Seed:        clientSeed,
		}).Start()
	}
	return r
}

// placeDataset generates the Spec's table (the default dataset when none is
// given) and places it.
func placeDataset(e *core.Engine, spec Spec) *colstore.Table {
	ds := spec.Dataset
	if ds.Rows == 0 {
		ds = workload.DefaultDataset()
	}
	ds.Synthetic = true
	ds.WithIndex = ds.WithIndex || spec.UseIndex
	table := workload.Generate(ds)

	switch spec.Placement.Kind {
	case RR:
		if spec.Skew {
			// The paper's skewed experiments have the hot half of the
			// columns on half the sockets (block layout); see PlaceRRBlocks.
			e.Placer.PlaceRRBlocks(table)
		} else {
			e.Placer.PlaceRR(table)
		}
	case IVP:
		e.Placer.PlaceRR(table) // dict/IX baseline location before IVP re-placement
		e.Placer.PlaceTableIVP(table, spec.Placement.Partitions)
	case PP:
		table = e.Placer.PlacePP(table, spec.Placement.Partitions)
	}
	return table
}

// dataset builders used by the experiment definitions ------------------------

// scaledDataset returns the harness dataset for a machine size. The paper's
// table has 160 columns; the 4- and 8-socket runs use 64 columns to keep the
// container footprint modest while preserving >= 16 columns per socket.
func scaledDataset(k MachineKind, rows int, withIndex bool) workload.DatasetConfig {
	cols := 64
	if k == ThirtyTwoSocket {
		cols = 160
	}
	return workload.DatasetConfig{
		Rows:       rows,
		Columns:    cols,
		BitcaseMin: 12,
		BitcaseMax: 21,
		WithIndex:  withIndex,
		Seed:       1,
	}
}
