// Package join implements the Section 8 extension the paper announces as
// ongoing work ("we are working on extending our analysis and our envisioned
// design to incorporate more complex operators, such as joins ... what we
// need to consider additionally is the placement of the data structures used
// internally in the operator, and placing correlated data on the same socket
// or on nearby sockets").
//
// The package provides both layers in the same style as the rest of the
// repository: a real, tested hash-join over dictionary-encoded columns, and
// the star statement that runs a join on the simulated machine. ExecuteStar
// submits a dimension scan, the join and an aggregation as one planned
// statement; the planner lowers it to exec operators whose task affinities
// derive from the data placement, including the placement of the
// operator-internal hash table (exec.JoinOp).
package join

import (
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/plan"
)

// ---- functional hash join ---------------------------------------------------

// HashTable is an open-addressing hash table from join-key values to build-
// side row ids (multi-map: repeated keys chain through the overflow list).
type HashTable struct {
	mask uint64
	keys []int64
	rows []uint32
	used []bool
	next []int32 // overflow chain per slot, -1 terminated
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
		Fact:            s.Fact,
		AggBytesPerRow:  s.AggBytesPerRow,
		AggCyclesPerRow: s.AggCyclesPerRow,
		HTSockets:       s.HTSockets,
	}, plan.StarDim{
		Dim:             s.Dim,
		Predicate:       s.DimPredicate,
		Key:             s.DimKey,
		FactFK:          s.FactFK,
		Selectivity:     s.Selectivity,
		HitsPerProbeRow: s.HitsPerProbeRow,
	})
}

// ExecuteStar submits the composed star-join statement as a planned Query
// through core.Engine.Submit: the spec's logical plan is checked, admitted
// and run on the four-operator pipeline (dimension scan, join build, join
// probe, measure aggregation) behind the per-query overhead, with
// concurrency-hint accounting and statement-timestamp priorities. The
// engine's plan cache optimizes and lowers the plan once per shape, with
// statistics collected from the live tables, and again only when a snapshot
// of those statistics or of the cost model changes; every other star of the
// shape runs on a recycled record that keeps its operators. On this
// single-dimension shape the lowering is field-for-field the hand wiring it
// replaced, pinned by a committed fingerprint of the starjoin scenario.
func ExecuteStar(e *core.Engine, s StarSpec) {
	e.Submit(&core.Query{Plan: s.Plan(), Strategy: s.Strategy, HomeSocket: s.HomeSocket, OnDone: s.OnDone})
}
