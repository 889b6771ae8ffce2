// Package join implements the Section 8 extension the paper announces as
// ongoing work ("we are working on extending our analysis and our envisioned
// design to incorporate more complex operators, such as joins ... what we
// need to consider additionally is the placement of the data structures used
// internally in the operator, and placing correlated data on the same socket
// or on nearby sockets").
//
// The package provides both layers in the same style as the rest of the
// repository: a real, tested hash-join over dictionary-encoded columns, and
// a NUMA-aware simulated execution built on the internal/exec operator
// pipeline — build and probe phases are exec operators whose task affinities
// derive from the data placement, including the placement of the
// operator-internal hash table. ExecuteStar composes a dimension scan, the
// join, and an aggregation into one scheduled statement.
package join

import (
	"fmt"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/exec"
	"numacs/internal/plan"
)

// ---- functional hash join ---------------------------------------------------

// HashTable is an open-addressing hash table from join-key values to build-
// side row ids (multi-map: repeated keys chain through the overflow list).
type HashTable struct {
	mask    uint64
	keys    []int64
	rows    []uint32
	used    []bool
	next    []int32 // overflow chain per slot, -1 terminated
	entries int
}

// BuildHashTable hashes every row of the build column.
func BuildHashTable(build *colstore.Column) *HashTable {
	size := 1
	for size < build.Rows*2 {
		size *= 2
	}
	ht := &HashTable{
		mask: uint64(size - 1),
		keys: make([]int64, size),
		rows: make([]uint32, size),
		used: make([]bool, size),
		next: make([]int32, size),
	}
	for i := range ht.next {
		ht.next[i] = -1
	}
	for i := 0; i < build.Rows; i++ {
		ht.insert(build.Value(i), uint32(i))
	}
	return ht
}

func hash64(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func (ht *HashTable) insert(key int64, row uint32) {
	slot := hash64(key) & ht.mask
	for ht.used[slot] {
		slot = (slot + 1) & ht.mask
	}
	ht.keys[slot] = key
	ht.rows[slot] = row
	ht.used[slot] = true
	ht.entries++
}

// Entries returns the number of build rows stored.
func (ht *HashTable) Entries() int { return ht.entries }

// SizeBytes returns the table's memory footprint.
func (ht *HashTable) SizeBytes() int64 {
	return int64(len(ht.keys))*(8+4+4) + int64(len(ht.used))
}

// ProbeValue appends the build rows whose key equals v.
func (ht *HashTable) ProbeValue(v int64, out []uint32) []uint32 {
	slot := hash64(v) & ht.mask
	for ht.used[slot] {
		if ht.keys[slot] == v {
			out = append(out, ht.rows[slot])
		}
		slot = (slot + 1) & ht.mask
	}
	return out
}

// Pair is one join match.
type Pair struct {
	BuildRow uint32
	ProbeRow uint32
}

// HashJoin joins two columns on value equality and returns all matching
// (build row, probe row) pairs in probe order.
func HashJoin(build, probe *colstore.Column) []Pair {
	ht := BuildHashTable(build)
	var out []Pair
	var hits []uint32
	for i := 0; i < probe.Rows; i++ {
		hits = ht.ProbeValue(probe.Value(i), hits[:0])
		for _, b := range hits {
			out = append(out, Pair{BuildRow: b, ProbeRow: uint32(i)})
		}
	}
	return out
}

// ---- NUMA-aware simulated execution ------------------------------------------

// Spec describes one simulated join execution. Both columns must be placed
// (PSMs populated). The hash table — the operator-internal structure the
// paper highlights — is placed per HTSockets: one socket for a centralized
// table, several for a partitioned table co-located with the build
// partitions.
type Spec struct {
	Build *colstore.Column
	Probe *colstore.Column
	// HTSockets lists the sockets holding hash-table partitions. When empty,
	// the table is placed on the build column's majority socket.
	HTSockets []int
	Strategy  core.Strategy
	// HitsPerProbeRow is the analytic join cardinality per probe row.
	HitsPerProbeRow float64
	// HomeSocket of the issuing client.
	HomeSocket int
	OnDone     func(latency float64)

	// Cost knobs (zero values take defaults).
	BuildCyclesPerRow float64
	ProbeCyclesPerRow float64
	HTMissRate        float64
}

// op builds the exec join operator for the spec (empty HTSockets defaults
// inside the operator, at build open).
func (s Spec) op(e *core.Engine) *exec.JoinOp {
	return &exec.JoinOp{
		Build:             s.Build,
		Probe:             s.Probe,
		HTSockets:         s.HTSockets,
		HitsPerProbeRow:   s.HitsPerProbeRow,
		Alloc:             e.Placer.Alloc,
		BuildCyclesPerRow: s.BuildCyclesPerRow,
		ProbeCyclesPerRow: s.ProbeCyclesPerRow,
		HTMissRate:        s.HTMissRate,
	}
}

// Execute runs the join on the engine's simulated machine as a two-phase
// operator pipeline: a parallel build phase (tasks bound to the build data's
// sockets, writing the hash table), a barrier, then a parallel probe phase
// (tasks bound to the probe data's sockets, randomly accessing the hash
// table wherever it was placed). It is the one operator-level path beside
// core.Engine.Submit, kept because it measures the bare build/probe operator
// (the hash-table placement ablation) and no plan node expresses a
// predicate-less two-column join: no per-query overhead, admission, trace
// span or concurrency-hint accounting.
func Execute(e *core.Engine, spec Spec) {
	if spec.Build.IVPSM == nil || spec.Probe.IVPSM == nil {
		panic("join: columns must be placed before execution")
	}
	j := spec.op(e)
	p := &exec.Pipeline{
		Env:        e.ExecEnv(),
		Strategy:   spec.Strategy,
		HomeSocket: spec.HomeSocket,
		IssuedAt:   e.Sim.Now(),
		Ops:        []exec.Operator{j.BuildOp(), j.ProbeOp()},
		OnDone:     spec.OnDone,
	}
	p.Start()
}

// StarSpec describes a composed scan -> join -> aggregate statement over a
// star schema: a range predicate filters the dimension, the surviving
// dimension keys build the join hash table, the fact foreign-key column
// probes it, and the matching fact rows' measures are aggregated — all four
// phases scheduled as one statement with PSM-derived task affinities.
type StarSpec struct {
	// Dim is the dimension table; DimPredicate is its scanned predicate
	// column, DimKey the join-key column inserted into the hash table.
	Dim          *colstore.Table
	DimPredicate string
	DimKey       string
	// Fact is the fact table; FactFK is its foreign-key (probe) column.
	Fact   *colstore.Table
	FactFK string

	// Selectivity of the dimension predicate.
	Selectivity float64
	// HitsPerProbeRow is the join cardinality per fact row against the
	// unfiltered dimension (the predicate scales it down).
	HitsPerProbeRow float64
	// AggBytesPerRow / AggCyclesPerRow cost the measure aggregation per
	// matching fact row.
	AggBytesPerRow  float64
	AggCyclesPerRow float64

	// HTSockets places the hash table (defaults to the dimension key's
	// majority socket).
	HTSockets []int
	Strategy  core.Strategy
	// HomeSocket of the issuing client.
	HomeSocket int
	OnDone     func(latency float64)
}

// Plan builds the star statement's logical plan — the planner's input for
// ExecuteStar and for EXPLAIN renderings of the star workload.
func (s StarSpec) Plan() *plan.Logical {
	return plan.BuildStar(plan.StarStatement{
		Fact: s.Fact,
		Dims: []plan.StarDim{{
			Dim:             s.Dim,
			Predicate:       s.DimPredicate,
			Key:             s.DimKey,
			FactFK:          s.FactFK,
			Selectivity:     s.Selectivity,
			HitsPerProbeRow: s.HitsPerProbeRow,
		}},
		AggBytesPerRow:  s.AggBytesPerRow,
		AggCyclesPerRow: s.AggCyclesPerRow,
		HTSockets:       s.HTSockets,
	})
}

// ExecuteStar submits the composed star-join statement as a planned Query
// through core.Engine.Submit: the spec's logical plan is checked, admitted,
// optimized with statistics collected from the live tables, and lowered to
// the four-operator pipeline (dimension scan, join build, join probe,
// measure aggregation) behind the per-query overhead, with concurrency-hint
// accounting and statement-timestamp priorities. On this single-dimension
// shape the lowering is field-for-field the hand wiring it replaced, pinned
// by a committed fingerprint of the starjoin scenario.
func ExecuteStar(e *core.Engine, s StarSpec) {
	e.Submit(&core.Query{Plan: s.Plan(), Strategy: s.Strategy, HomeSocket: s.HomeSocket, OnDone: s.OnDone})
}

// String renders a spec for logs.
func (s Spec) String() string {
	return fmt.Sprintf("join(%s ⋈ %s, HT on %v, %s)", s.Build.Name, s.Probe.Name, s.HTSockets, s.Strategy)
}
