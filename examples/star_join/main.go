// star_join demonstrates the Section 8 extension: NUMA-aware hash joins
// between a dimension and a fact table. Part 1 runs the functional hash join
// on real data. Part 2 compares placements of the operator-internal hash
// table — partitioned across the build data's sockets vs centralized on one
// — which is exactly the consideration the paper calls out for joins ("the
// placement of the data structures used internally in the operator").
//
// Both simulated parts run the composed star-join statement through the
// planner: scan the dimension predicate, build the hash table from the
// qualifying keys, probe it with the fact foreign keys, and aggregate the
// matching measures — four phases scheduled as ONE statement. Part 3 runs it
// under each scheduling strategy.
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"numacs"
)

func main() {
	var (
		dimRows  = flag.Int("dim", 30_000, "dimension rows (build side)")
		factRows = flag.Int("fact", 120_000, "fact rows (probe side)")
		clients  = flag.Int("clients", 32, "concurrent star-join statements")
		measure  = flag.Float64("measure", 0.25, "virtual window (s)")
	)
	flag.Parse()

	// Part 1: the functional join on real data.
	rng := rand.New(rand.NewSource(1))
	dimVals := make([]int64, 1000)
	for i := range dimVals {
		dimVals[i] = int64(i)
	}
	factVals := make([]int64, 5000)
	for i := range factVals {
		factVals[i] = rng.Int63n(1200) // some fact keys miss the dimension
	}
	dim := numacs.BuildColumn("DIM_ID", dimVals, false)
	fact := numacs.BuildColumn("FACT_FK", factVals, false)
	pairs := numacs.HashJoin(dim, fact)
	fmt.Printf("functional join: %d fact rows x %d dim rows -> %d matches\n\n",
		fact.Rows, dim.Rows, len(pairs))

	// Part 2: the star statement with two hash-table placements, under Bound.
	fmt.Println("star-join statement under Bound, two hash-table placements:")
	for _, ht := range [][]int{{0, 1, 2, 3}, {0}} {
		perMin, perSock := runStar(numacs.Bound, ht, *dimRows, *factRows, *clients, *measure)
		name := "partitioned (4 sockets)"
		if len(ht) == 1 {
			name = "centralized (socket 0) "
		}
		fmt.Printf("  hash table %s  %8.0f statements/min   memory %6.1f GiB/s\n",
			name, perMin, sum(perSock))
	}
	fmt.Println("\nCo-locating the hash-table partitions with the build data keeps")
	fmt.Println("both the build inserts and the probe lookups socket-local.")

	// Part 3: the same statement under each scheduling strategy.
	fmt.Println("\nstar-join statement (scan dim, join fact, aggregate) per strategy:")
	for _, st := range []numacs.Strategy{numacs.OS, numacs.Target, numacs.Bound} {
		perMin, perSock := runStar(st, []int{0, 1, 2, 3}, *dimRows, *factRows, *clients, *measure)
		fmt.Printf("  %-7s %8.0f statements/min   memory %6.1f GiB/s   per-socket %v\n",
			st, perMin, sum(perSock), fmtGiBs(perSock))
	}
	fmt.Println("\nThe composed statement keeps every phase's tasks on the sockets of")
	fmt.Println("their inputs; with Bound, the whole star join runs without QPI crossings")
	fmt.Println("except the partitioned hash-table probes.")
}

// runStar runs clients closed-loop star-join statements with strategy st and
// the hash table on ht for the measure window of a fresh engine, and returns
// the statements per minute and the per-socket memory throughput in GiB/s.
func runStar(st numacs.Strategy, ht []int, dimRows, factRows, clients int, measure float64) (float64, []float64) {
	engine := numacs.NewEngineWithStep(numacs.FourSocketIvyBridge(), 1, 10e-6)
	dim := numacs.NewTable("DIM", []*numacs.Column{
		numacs.BuildColumn("D_DATE", seq(dimRows, 2_000), false),
		numacs.BuildColumn("D_ID", seq(dimRows, 10_000), false),
	})
	fact := numacs.NewTable("FACT", []*numacs.Column{
		numacs.BuildColumn("F_FK", seq(factRows, 10_000), false),
	})
	for _, c := range dim.Parts[0].Columns {
		engine.Placer.PlaceIVP(c, []int{0, 1, 2, 3})
	}
	engine.Placer.PlaceIVP(fact.Parts[0].Columns[0], []int{0, 1, 2, 3})

	completed, inflight := 0, 0
	var issue func()
	issue = func() {
		if inflight >= clients {
			return
		}
		inflight++
		numacs.ExecuteStarJoin(engine, numacs.StarJoinSpec{
			Dim: dim, DimPredicate: "D_DATE", DimKey: "D_ID",
			Fact: fact, FactFK: "F_FK",
			Selectivity:     0.05, // 5% of the dimension qualifies
			HitsPerProbeRow: 1,
			AggBytesPerRow:  12, AggCyclesPerRow: 24,
			HTSockets: ht,
			Strategy:  st,
			OnDone:    func(float64) { completed++; inflight--; issue() },
		})
	}
	for i := 0; i < clients; i++ {
		issue()
	}
	engine.Sim.Run(measure)
	return float64(completed) / measure * 60, engine.Counters.MemoryThroughputGiBs(measure)
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func fmtGiBs(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.1f", x)
	}
	return out
}

func seq(n int, mod int64) []int64 {
	vals := make([]int64, n)
	s := uint64(12345)
	for i := range vals {
		s = s*6364136223846793005 + 1442695040888963407
		vals[i] = int64(s>>33) % mod
	}
	return vals
}
