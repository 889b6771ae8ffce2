// Package numacs is a Go reproduction of "Scaling Up Concurrent Main-Memory
// Column-Store Scans: Towards Adaptive NUMA-aware Data and Task Placement"
// (Psaroudakis et al., VLDB 2015).
//
// The library provides:
//
//   - A main-memory column store with dictionary-encoded, bit-compressed
//     columns and optional inverted indexes (the functional kernels are
//     real and fully tested).
//   - A deterministic simulated NUMA machine — sockets, memory controllers,
//     QPI links, cache-coherence protocols — calibrated against the paper's
//     Table 1, standing in for hardware the Go runtime cannot pin threads
//     to.
//   - The paper's three data placements (RR, IVP, PP) over a simulated page
//     allocator with move_pages semantics, tracked by Page Socket Mappings.
//   - A NUMA-aware task scheduler with per-socket thread groups, hard
//     affinities, stealing, and the concurrency hint.
//   - The OS/Target/Bound scheduling strategies, closed-loop scan and
//     aggregation workloads, and the adaptive data placer of Section 7.
//   - A harness regenerating every table and figure of the paper's
//     evaluation (see cmd/scanbench and EXPERIMENTS.md).
//
// Quickstart:
//
//	machine := numacs.FourSocketIvyBridge()
//	engine := numacs.NewEngine(machine, 1)
//	table := numacs.GenerateDataset(numacs.DatasetConfig{
//	    Rows: 100_000, Columns: 16, BitcaseMin: 12, BitcaseMax: 21, Seed: 1,
//	})
//	engine.Placer.PlaceRR(table)
//	clients := numacs.NewClients(engine, table, numacs.ClientsConfig{
//	    N: 64, Selectivity: 0.0001, Parallel: true, Strategy: numacs.Bound,
//	})
//	clients.Start()
//	engine.Sim.Run(0.5) // half a second of virtual time
//	fmt.Println(engine.Counters.ThroughputQPM(0.5))
//
// See the examples directory for runnable programs.
package numacs

import (
	"numacs/internal/adaptive"
	"numacs/internal/admit"
	"numacs/internal/agg"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/delta"
	"numacs/internal/harness"
	"numacs/internal/join"
	"numacs/internal/memsim"
	"numacs/internal/metrics"
	"numacs/internal/placement"
	"numacs/internal/psm"
	"numacs/internal/sched"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/workload"
)

// Machine topology -----------------------------------------------------------

// Machine describes a NUMA machine: sockets, cores, memory controllers,
// interconnect links, latencies, and the coherence protocol.
type Machine = topology.Machine

// Link is a directed interconnect link.
type Link = topology.Link

// Coherence selects the cache-coherence protocol.
type Coherence = topology.Coherence

// Coherence protocols.
const (
	Directory      = topology.Directory
	BroadcastSnoop = topology.BroadcastSnoop
)

// FourSocketIvyBridge returns the paper's main 4-socket machine (Table 1).
func FourSocketIvyBridge() *Machine { return topology.FourSocketIvyBridge() }

// EightSocketWestmere returns the 8-socket broadcast-snoop machine (Table 1).
func EightSocketWestmere() *Machine { return topology.EightSocketWestmere() }

// SixteenSocketIvyBridge returns half of the rack-scale machine (Section 6.3).
func SixteenSocketIvyBridge() *Machine { return topology.SixteenSocketIvyBridge() }

// ThirtyTwoSocketIvyBridge returns the SGI UV 300 rack-scale machine (Table 1).
func ThirtyTwoSocketIvyBridge() *Machine { return topology.ThirtyTwoSocketIvyBridge() }

// Column store ----------------------------------------------------------------

// Column is a dictionary-encoded column: sorted dictionary, bit-compressed
// indexvector, optional inverted index.
type Column = colstore.Column

// Table is a physically partitionable table of columns.
type Table = colstore.Table

// Part is one physical partition of a table.
type Part = colstore.Part

// Index is the optional inverted index of a column.
type Index = colstore.Index

// Delta is a column's write-side delta store: uncompressed per-socket
// fragments appends land in until a background merge folds them into the
// dictionary-encoded main.
type Delta = delta.Delta

// DeltaFragment is one per-socket fragment of a column's delta.
type DeltaFragment = delta.Fragment

// PackedVector is a bit-compressed integer vector.
type PackedVector = colstore.PackedVector

// BuildColumn dictionary-encodes values into a column.
func BuildColumn(name string, values []int64, withIndex bool) *Column {
	return colstore.Build(name, values, withIndex)
}

// NewTable builds a single-part table from whole columns.
func NewTable(name string, columns []*Column) *Table { return colstore.NewTable(name, columns) }

// Memory simulation ------------------------------------------------------------

// Allocator is the simulated physical page allocator (move_pages semantics).
type Allocator = memsim.Allocator

// MemRange is a simulated virtual address range.
type MemRange = memsim.Range

// PSM is the Page Socket Mapping of Section 4.3.
type PSM = psm.PSM

// PageSize is the simulated page size in bytes.
const PageSize = memsim.PageSize

// OnSocket is the allocation policy placing every page on one socket.
type OnSocket = memsim.OnSocket

// Interleaved is the allocation policy distributing pages round-robin.
type Interleaved = memsim.Interleaved

// BuildPSM summarizes the physical location of the given ranges.
func BuildPSM(alloc *Allocator, ranges ...MemRange) *PSM { return psm.Build(alloc, ranges...) }

// Placement ---------------------------------------------------------------------

// Placer applies the RR/IVP/PP data placements.
type Placer = placement.Placer

// Execution engine ----------------------------------------------------------------

// Engine executes queries on a simulated machine.
type Engine = core.Engine

// Query describes one range-predicate column selection (or aggregation).
type Query = core.Query

// Costs holds the calibrated cost-model constants.
type Costs = core.Costs

// Strategy is a task scheduling strategy.
type Strategy = core.Strategy

// Scheduling strategies (Section 6): OS leaves placement to the operating
// system; Target sets task affinities; Bound additionally prevents
// inter-socket stealing.
const (
	OS     = core.OSched
	Target = core.Target
	Bound  = core.Bound
)

// NewEngine creates an engine with all substrates wired up.
func NewEngine(m *Machine, seed int64) *Engine { return core.New(m, seed) }

// NewEngineWithStep creates an engine with an explicit simulator step.
func NewEngineWithStep(m *Machine, seed int64, step float64) *Engine {
	return core.NewWithStep(m, seed, step)
}

// DefaultCosts returns the calibrated cost-model defaults.
func DefaultCosts() Costs { return core.DefaultCosts() }

// Scheduler & metrics ---------------------------------------------------------------

// Task is a schedulable unit of work.
type Task = sched.Task

// Worker is a scheduler worker thread.
type Worker = sched.Worker

// Counters accumulates the performance metrics the paper reports.
type Counters = metrics.Counters

// LatencyStats summarizes a latency distribution.
type LatencyStats = metrics.LatencyStats

// Flow describes a unit of simulated work to start. The simulator copies
// it when the flow starts, so a caller may reuse or drop it afterwards.
type Flow = sim.Flow

// Workloads -------------------------------------------------------------------------

// DatasetConfig describes the synthetic dataset generator.
type DatasetConfig = workload.DatasetConfig

// ClientsConfig configures a closed-loop client population.
type ClientsConfig = workload.ClientsConfig

// Clients drives closed-loop scan clients.
type Clients = workload.Clients

// Chooser picks the column a client queries.
type Chooser = workload.Chooser

// UniformChoice picks query columns uniformly.
type UniformChoice = workload.UniformChoice

// SkewedChoice picks query columns with the paper's 80/20 skew.
type SkewedChoice = workload.SkewedChoice

// HotColumnChoice concentrates queries on a single read-hot column.
type HotColumnChoice = workload.HotColumnChoice

// GenerateDataset builds the synthetic table.
func GenerateDataset(cfg DatasetConfig) *Table { return workload.Generate(cfg) }

// NewClients creates a closed-loop client population over a placed table.
func NewClients(e *Engine, t *Table, cfg ClientsConfig) *Clients {
	return workload.NewClients(e, t, cfg)
}

// WritersConfig is the workload's write-mix knob: inserts/updates per
// virtual second against chosen columns.
type WritersConfig = workload.WritersConfig

// Writers drives the write mix against per-socket delta fragments; register
// it with engine.Sim.AddActor.
type Writers = workload.Writers

// NewWriters creates the writer population over a placed single-part table.
func NewWriters(e *Engine, t *Table, cfg WritersConfig) *Writers {
	return workload.NewWriters(e, t, cfg)
}

// MultiTenantConfig configures the multi-tenant statement generator:
// open-loop arrival rates with bursts, closed-loop clients with think
// times, per tenant.
type MultiTenantConfig = workload.MultiTenantConfig

// TenantLoad describes one tenant of the multi-tenant generator.
type TenantLoad = workload.TenantLoad

// MultiTenant drives the multi-tenant mix; register it with
// engine.Sim.AddActor and call Start.
type MultiTenant = workload.MultiTenant

// NewMultiTenant creates the multi-tenant generator over a placed table.
func NewMultiTenant(e *Engine, t *Table, cfg MultiTenantConfig) *MultiTenant {
	return workload.NewMultiTenant(e, t, cfg)
}

// Admission control (front-end QoS layer) -----------------------------------------------

// AdmitConfig tunes the statement-admission controller: tenant weights,
// elastic concurrency bounds, saturation watermarks, per-class shedding
// deadlines.
type AdmitConfig = admit.Config

// AdmitController is the admission front end; enable it with
// Engine.EnableAdmission and tag queries with Query.Tenant.
type AdmitController = admit.Controller

// AdmitTenantSpec registers one tenant's fair-share weight.
type AdmitTenantSpec = admit.TenantSpec

// Shared scan cohorts ---------------------------------------------------------------------

// SharedScanConfig tunes the scan-cohort registry: join window, mid-flight
// attach bound, cohort size cap.
type SharedScanConfig = sharedscan.Config

// SharedScanRegistry is the cohort layer merging concurrent same-column
// scans into one physical pass; enable it with Engine.EnableSharedScans.
type SharedScanRegistry = sharedscan.Registry

// SharedScanStats counts cohort outcomes (passes, merged members,
// mid-flight attaches, wrap passes, join-window sheds).
type SharedScanStats = sharedscan.Stats

// FixedColumnChoice makes every client scan the same column — the
// same-column hot-scan mix of the shared-scan experiment.
type FixedColumnChoice = workload.FixedColumnChoice

// AggClients drives TPC-H-Q1-style or BW-EML-style aggregation clients.
type AggClients = agg.Clients

// NewQ1Clients builds the TPC-H-Q1-style population (Section 6.3).
func NewQ1Clients(e *Engine, t *Table, n int, st Strategy, seed int64) *AggClients {
	return agg.NewQ1Clients(e, t, n, st, seed)
}

// NewBWEMLClients builds the BW-EML-style population (Section 6.3).
func NewBWEMLClients(e *Engine, cubes []*Table, n int, st Strategy, seed int64) *AggClients {
	return agg.NewBWEMLClients(e, cubes, n, st, seed)
}

// Q1Table builds the synthetic lineitem-like table.
func Q1Table(rows int, seed int64) *Table {
	return agg.Q1Table(agg.Q1Config{Rows: rows, Seed: seed})
}

// BWEMLCubes builds the InfoCube-like tables.
func BWEMLCubes(rowsPerCube int, seed int64) []*Table {
	return agg.BWEMLCubes(agg.BWEMLConfig{RowsPerCube: rowsPerCube, Seed: seed})
}

// Joins (Section 8 extension) -----------------------------------------------------------

// JoinPair is one hash-join match.
type JoinPair = join.Pair

// HashTable is the functional hash table of the join operator.
type HashTable = join.HashTable

// HashJoin joins two columns on value equality (functional, fully tested).
func HashJoin(build, probe *Column) []JoinPair { return join.HashJoin(build, probe) }

// StarJoinSpec describes a composed scan -> join -> aggregate statement over
// a star schema: a range predicate filters the dimension, the surviving keys
// build the hash table, the fact foreign-key column probes it, and the
// matching rows' measures are aggregated in one scheduled statement.
type StarJoinSpec = join.StarSpec

// ExecuteStarJoin submits the composed star-join statement as a
// four-operator pipeline through the statement entry point.
func ExecuteStarJoin(e *Engine, spec StarJoinSpec) { join.ExecuteStar(e, spec) }

// Adaptive design ----------------------------------------------------------------------

// AdaptivePlacer is the Section 7 data placer: it balances socket
// utilization by moving and repartitioning hot data.
type AdaptivePlacer = adaptive.Placer

// AdaptiveConfig tunes the adaptive placer.
type AdaptiveConfig = adaptive.Config

// Catalog lists the tables the adaptive placer manages.
type Catalog = adaptive.Catalog

// NewAdaptivePlacer creates a placer, at most one per engine and before the
// simulation runs; register it with engine.Sim.AddActor.
func NewAdaptivePlacer(e *Engine, cat *Catalog, cfg AdaptiveConfig) *AdaptivePlacer {
	return adaptive.New(e, cat, cfg)
}

// DefaultAdaptiveConfig returns the placer defaults.
func DefaultAdaptiveConfig() AdaptiveConfig { return adaptive.DefaultConfig() }

// Experiments -----------------------------------------------------------------------------

// Experiment regenerates one table or figure of the paper.
type Experiment = harness.Experiment

// ExperimentScale sizes experiments (FullScale or QuickScale).
type ExperimentScale = harness.Scale

// ExperimentReport is the rendered outcome of an experiment.
type ExperimentReport = harness.Report

// Experiments returns every experiment in paper order.
func Experiments() []Experiment { return harness.All() }

// ExperimentByID finds an experiment (e.g. "fig8").
func ExperimentByID(id string) (Experiment, bool) { return harness.ByID(id) }

// FullScale returns the default experiment scale.
func FullScale() ExperimentScale { return harness.FullScale() }

// QuickScale returns a reduced scale for quick runs.
func QuickScale() ExperimentScale { return harness.QuickScale() }
