// Package agg implements the Section 6.3 benchmark workloads as synthetic
// equivalents (the paper's TPC-H kit and the proprietary SAP BW-EML
// benchmark are not available here; EXPERIMENTS.md's fig19 row states what
// the substitutes must reproduce):
//
//   - A TPC-H-Q1-style workload: continuously issued instances of an
//     aggregation query over one large lineitem-like table, dominated by
//     per-row multiplications — CPU-intensive, which is why stealing
//     (Target) helps it.
//   - A BW-EML-style reporting workload: three star-schema "InfoCube"
//     tables queried with simple, memory-intensive aggregations — which is
//     why stealing hurts and Bound wins.
package agg

import (
	"fmt"
	"math/rand"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/workload"
)

// Q1Config sizes the lineitem-like table.
type Q1Config struct {
	Rows int
	Seed int64
}

// Q1Table builds the synthetic lineitem table: a predicate column standing
// in for l_shipdate plus the aggregated measure columns (quantity,
// extendedprice, discount, tax, returnflag, linestatus).
func Q1Table(cfg Q1Config) *colstore.Table {
	ds := workload.DatasetConfig{
		Rows:       cfg.Rows,
		Columns:    7,
		BitcaseMin: 12,
		BitcaseMax: 16,
		Seed:       cfg.Seed,
		Synthetic:  true,
	}
	t := workload.Generate(ds)
	// Rename to the TPC-H roles for readability in reports.
	names := []string{"L_SHIPDATE", "L_QUANTITY", "L_EXTENDEDPRICE", "L_DISCOUNT",
		"L_TAX", "L_RETURNFLAG", "L_LINESTATUS"}
	for i, c := range t.Parts[0].Columns {
		c.Name = names[i]
	}
	return t
}

// Q1 query profile: Q1 qualifies almost every row (shipdate <= ~98% of the
// horizon) and computes several multiplications per row, making it
// CPU-intensive (Section 6.3).
const (
	Q1Selectivity = 0.97
	// Q1BytesPerRow: six measure columns at ~2 packed bytes each.
	Q1BytesPerRow = 12
	// Q1CyclesPerRow: the sum/avg/discount/tax multiplication chains.
	Q1CyclesPerRow = 90
)

// BWEMLConfig sizes the InfoCube tables.
type BWEMLConfig struct {
	RowsPerCube int
	Cubes       int // the benchmark has 3
	Seed        int64
}

// BWEMLCubes builds the InfoCube tables.
func BWEMLCubes(cfg BWEMLConfig) []*colstore.Table {
	if cfg.Cubes == 0 {
		cfg.Cubes = 3
	}
	cubes := make([]*colstore.Table, cfg.Cubes)
	for i := range cubes {
		ds := workload.DatasetConfig{
			Rows:       cfg.RowsPerCube,
			Columns:    8,
			BitcaseMin: 10,
			BitcaseMax: 14,
			Seed:       cfg.Seed + int64(i),
			Synthetic:  true,
		}
		t := workload.Generate(ds)
		t.Name = fmt.Sprintf("INFOCUBE%d", i+1)
		cubes[i] = t
	}
	return cubes
}

// BW-EML query profile: reporting navigation steps scan a cube and apply
// simple aggregation expressions — memory-intensive (Section 6.3).
const (
	BWEMLSelectivity  = 0.30
	BWEMLBytesPerRow  = 16
	BWEMLCyclesPerRow = 6
)

// Clients drives closed-loop aggregation clients over one or more tables
// (Q1 uses one; BW-EML picks among the cubes uniformly).
type Clients struct {
	Engine   *core.Engine
	Tables   []*colstore.Table
	Column   func(t *colstore.Table) string // predicate column per table
	N        int
	Strategy core.Strategy

	Selectivity  float64
	BytesPerRow  float64
	CyclesPerRow float64

	rng    *rand.Rand
	Issued uint64
}

// NewQ1Clients builds the TPC-H-Q1-style population.
func NewQ1Clients(e *core.Engine, table *colstore.Table, n int, strategy core.Strategy, seed int64) *Clients {
	return &Clients{
		Engine: e, Tables: []*colstore.Table{table},
		Column:       func(*colstore.Table) string { return "L_SHIPDATE" },
		N:            n,
		Strategy:     strategy,
		Selectivity:  Q1Selectivity,
		BytesPerRow:  Q1BytesPerRow,
		CyclesPerRow: Q1CyclesPerRow,
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// NewBWEMLClients builds the BW-EML-style population over the cubes.
func NewBWEMLClients(e *core.Engine, cubes []*colstore.Table, n int, strategy core.Strategy, seed int64) *Clients {
	return &Clients{
		Engine: e, Tables: cubes,
		Column:       func(t *colstore.Table) string { return t.Parts[0].Columns[0].Name },
		N:            n,
		Strategy:     strategy,
		Selectivity:  BWEMLSelectivity,
		BytesPerRow:  BWEMLBytesPerRow,
		CyclesPerRow: BWEMLCyclesPerRow,
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// Start admits all clients.
func (c *Clients) Start() {
	for i := 0; i < c.N; i++ {
		c.issue(i)
	}
}

// issue submits one aggregation statement: a find-phase scan feeding an
// aggregation over its qualifying regions.
func (c *Clients) issue(client int) {
	c.Issued++
	t := c.Tables[c.rng.Intn(len(c.Tables))]
	c.Engine.Submit(&core.Query{
		Table: t, Column: c.Column(t), Selectivity: c.Selectivity, Parallel: true,
		Strategy: c.Strategy, HomeSocket: client % c.Engine.Machine.Sockets,
		Aggregate: true, AggBytesPerRow: c.BytesPerRow, AggCyclesPerRow: c.CyclesPerRow,
		OnDone: func(float64) { c.issue(client) },
	})
}
