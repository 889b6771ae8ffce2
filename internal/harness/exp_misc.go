package harness

import (
	"fmt"

	"numacs/internal/adaptive"
	"numacs/internal/agg"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/memsim"
	"numacs/internal/placement"
	"numacs/internal/psm"
	"numacs/internal/workload"
)

// runFig19 reproduces Figure 19: the TPC-H-Q1-style and BW-EML-style
// workloads on the 16-socket half of the rack-scale machine, across PP
// granularities and the Target/Bound strategies, normalized to the best
// observed throughput (the paper normalizes to undisclosed constants).
func runFig19(s Scale) *Report {
	rep := &Report{ID: "fig19", Title: "TPC-H Q1 and BW-EML style workloads, 16 sockets"}

	granularities := []int{1, 2, 4, 8, 16} // 1 = RR
	strategies := []core.Strategy{core.Target, core.Bound}

	spec := func(setup func(*core.Engine, *colstore.Table)) Spec {
		return Spec{Machine: SixteenSocket, Warmup: s.Warmup, Measure: s.Measure, Step: s.Step32, Seed: 1, Setup: setup}
	}
	runQ1 := func(gran int, st core.Strategy) float64 {
		return Run(spec(func(e *core.Engine, _ *colstore.Table) {
			table := agg.Q1Table(agg.Q1Config{Rows: s.Rows32, Seed: 1})
			if gran == 1 {
				e.Placer.PlaceTableOnSocket(table, 0)
			} else {
				table = e.Placer.PlacePP(table, gran)
			}
			agg.NewQ1Clients(e, table, 32, st, 7).Start()
		})).QPM
	}
	runBWEML := func(gran int, st core.Strategy) float64 {
		return Run(spec(func(e *core.Engine, _ *colstore.Table) {
			cubes := agg.BWEMLCubes(agg.BWEMLConfig{RowsPerCube: s.Rows32, Seed: 1})
			for ci, cube := range cubes {
				if gran == 1 {
					e.Placer.PlaceTableOnSocket(cube, ci%e.Machine.Sockets)
					continue
				}
				cubes[ci] = placePPAt(e.Placer, cube, gran, ci*gran)
			}
			agg.NewBWEMLClients(e, cubes, 256, st, 7).Start()
		})).QPM
	}

	render := func(name string, run func(int, core.Strategy) float64) {
		raw := map[string]float64{}
		max := 0.0
		for _, g := range granularities {
			for _, st := range strategies {
				v := run(g, st)
				raw[key19(g, st)] = v
				if v > max {
					max = v
				}
			}
		}
		tb := rep.AddTable(name, []string{"placement", "Target", "Bound"})
		for _, g := range granularities {
			label := "RR"
			if g > 1 {
				label = fmt.Sprintf("PP%d", g)
			}
			tb.AddRow(label,
				fmt.Sprintf("%.2f", raw[key19(g, core.Target)]/max),
				fmt.Sprintf("%.2f", raw[key19(g, core.Bound)]/max))
		}
	}
	render("TPC-H Q1 instances (normalized to c1)", runQ1)
	render("BW-EML reporting load (normalized to c2)", runBWEML)
	return rep
}

func key19(g int, st core.Strategy) string { return fmt.Sprintf("%d/%s", g, st) }

// placePPAt physically partitions a table and places part j on socket
// (offset+j) mod sockets, so multiple tables spread across disjoint socket
// ranges (the round-robin distribution of Section 6.3).
func placePPAt(p *placement.Placer, t *colstore.Table, parts, offset int) *colstore.Table {
	pp := t.PhysicallyPartition(parts)
	for j, part := range pp.Parts {
		socket := (offset + j) % p.Machine.Sockets
		part.HomeSocket = socket
		for _, c := range part.Columns {
			p.PlaceColumnOnSocket(c, socket)
		}
	}
	return pp
}

// runTable2 reproduces Table 2: the placement property matrix, with measured
// evidence gathered at reduced scale.
func runTable2(s Scale) *Report {
	rep := &Report{ID: "table2", Title: "Placement property matrix"}

	// Measured evidence: latency fairness (CoV) and throughput at the
	// analysis point, plus repartitioning cost and memory overhead.
	base := s.spec4(FourSocket)
	evidence := map[string]Result{}
	for _, p := range []PlacementSpec{{Kind: RR}, {Kind: IVP, Partitions: 4}, {Kind: PP, Partitions: 4}} {
		evidence[p.String()] = Run(base.cell(p, core.Bound, s.Max, lowSel))
	}
	ds := workload.DatasetConfig{Rows: 40_000, Columns: 8, BitcaseMin: 8, BitcaseMax: 14, Seed: 3}
	real := workload.Generate(ds)
	ivpCost := placement.IVPCost(real)
	ppCost := placement.PPCost(real)
	ppTable := real.PhysicallyPartition(4)
	memOverhead := float64(ppTable.TotalBytes())/float64(real.TotalBytes()) - 1

	tb := rep.AddTable("", []string{"placement", "concurrency", "selectivities", "workload dist.",
		"latency CoV (meas.)", "memory consumed", "readjustment", "large-scale overhead"})
	tb.AddRow("RR", "High", "All", "Uniform",
		f2(evidence["RR"].Latency.CoeffOfVariation), "Normal", "Quick", "Low")
	tb.AddRow("IVP", "All", "Low (w/o index) & medium", "Uniform & skewed",
		f2(evidence["IVP4"].Latency.CoeffOfVariation), "Normal",
		fmt.Sprintf("Quick (%.2fs)", ivpCost), "High")
	tb.AddRow("PP", "All", "All", "Uniform & skewed",
		f2(evidence["PP4"].Latency.CoeffOfVariation),
		fmt.Sprintf("+%.0f%%", memOverhead*100),
		fmt.Sprintf("Slow (%.2fs)", ppCost), "High")
	return rep
}

// runPSMSize reproduces the Section 4.3 metadata-size analysis on a
// simulated 32-socket machine.
func runPSMSize(Scale) *Report {
	rep := &Report{ID: "psmsize", Title: "PSM metadata size for a column on 32 sockets"}
	tb := rep.AddTable("", []string{"placement", "IV ranges", "dict ranges", "IX ranges", "total KiB"})

	build := func(name string, f func(a *memsim.Allocator) (iv, dict, ix *psm.PSM, parts int)) {
		a := memsim.NewAllocator(32)
		iv, dict, ix, parts := f(a)
		bits := (iv.SizeBits() + dict.SizeBits() + ix.SizeBits()) * parts
		tb.AddRow(name, itoa(iv.NumRanges()*parts), itoa(dict.NumRanges()*parts),
			itoa(ix.NumRanges()*parts), fmt.Sprintf("%.1f", float64(bits)/8/1024))
	}
	const pages = 128
	build("whole on one socket", func(a *memsim.Allocator) (*psm.PSM, *psm.PSM, *psm.PSM, int) {
		iv := a.Alloc(pages*memsim.PageSize, memsim.OnSocket(0))
		dict := a.Alloc(pages*memsim.PageSize, memsim.OnSocket(0))
		ix1 := a.Alloc(pages*memsim.PageSize, memsim.OnSocket(0))
		ix2 := a.Alloc(pages*memsim.PageSize, memsim.OnSocket(0))
		return psm.Build(a, iv), psm.Build(a, dict), psm.Build(a, ix1, ix2), 1
	})
	all := make([]int, 32)
	for i := range all {
		all[i] = i
	}
	build("IVP across 32 sockets", func(a *memsim.Allocator) (*psm.PSM, *psm.PSM, *psm.PSM, int) {
		iv := a.Alloc(pages*memsim.PageSize, memsim.OnSocket(0))
		for i := 0; i < 32; i++ {
			a.MovePages(iv.Subrange(int64(i)*pages/32*memsim.PageSize, pages/32*memsim.PageSize), i)
		}
		dict := a.Alloc(pages*memsim.PageSize, memsim.Interleaved{Sockets: all})
		ix1 := a.Alloc(pages*memsim.PageSize, memsim.Interleaved{Sockets: all})
		ix2 := a.Alloc(pages*memsim.PageSize, memsim.Interleaved{Sockets: all})
		return psm.Build(a, iv), psm.Build(a, dict), psm.Build(a, ix1, ix2), 1
	})
	build("PP with 32 parts", func(a *memsim.Allocator) (*psm.PSM, *psm.PSM, *psm.PSM, int) {
		// One part: everything on one socket; 32 such parts.
		iv := a.Alloc(pages/32*memsim.PageSize, memsim.OnSocket(0))
		dict := a.Alloc(pages/32*memsim.PageSize, memsim.OnSocket(0))
		ix1 := a.Alloc(pages/32*memsim.PageSize, memsim.OnSocket(0))
		ix2 := a.Alloc(pages/32*memsim.PageSize, memsim.OnSocket(0))
		return psm.Build(a, iv), psm.Build(a, dict), psm.Build(a, ix1, ix2), 32
	})
	return rep
}

// runRepart reproduces the Section 6.2.3 repartitioning comparison: IVP is
// quick (page moves) while PP rebuilds every column and duplicates
// dictionary values.
func runRepart(s Scale) *Report {
	rep := &Report{ID: "repart", Title: "Repartitioning cost: IVP vs PP"}
	rows := s.Rows / 4
	if rows < 10_000 {
		rows = 10_000
	}
	ds := workload.DatasetConfig{Rows: rows, Columns: 16, BitcaseMin: 8, BitcaseMax: 17, Seed: 3}
	real := workload.Generate(ds)

	ivpCost := placement.IVPCost(real)
	ppCost := placement.PPCost(real)
	pp := real.PhysicallyPartition(4)
	overhead := float64(pp.TotalBytes())/float64(real.TotalBytes()) - 1

	tb := rep.AddTable("", []string{"mechanism", "est. duration (s)", "relative", "memory overhead"})
	tb.AddRow("IVP (move pages)", fmt.Sprintf("%.3f", ivpCost), "1.0x", "none")
	tb.AddRow("PP (rebuild columns)", fmt.Sprintf("%.3f", ppCost),
		fmt.Sprintf("%.1fx", ppCost/ivpCost), fmt.Sprintf("+%.1f%%", overhead*100))
	return rep
}

// runAdaptive demonstrates the Section 7 design: a skewed workload on
// RR-placed columns, static vs with the adaptive data placer attached.
func runAdaptive(s Scale) *Report {
	rep := &Report{ID: "adaptive", Title: "Static RR vs adaptive data placement (skewed workload)"}

	run := func(adapt bool) *engineRun {
		sp := Spec{
			Machine: FourSocket, Dataset: scaledDataset(FourSocket, s.Rows, false),
			// Block layout: the hot half of the columns sits on half the
			// sockets (the skewed setup of Section 6.2), with the 80/20 skew.
			Placement: PlacementSpec{Kind: RR}, Skew: true,
			Clients: s.Max, Selectivity: lowSel, Parallel: true, Strategy: core.Bound, ClientSeed: 11,
			// Longer warmup: the placer needs time to converge.
			Warmup: s.Warmup + s.Measure, Measure: s.Measure, Step: s.Step, Seed: 1,
		}
		if adapt {
			cfg := adaptive.DefaultConfig()
			cfg.Period = s.Measure / 12
			sp.Placer = &cfg
		}
		return runEngine(sp)
	}

	static, adapt := run(false), run(true)

	tb := rep.AddTable("", []string{"configuration", "TP(q/min)", "per-socket memTP (GiB/s)"})
	tb.AddRow("static RR", f0(static.QPM), fmtSockets(static.MemTP))
	tb.AddRow("adaptive", f0(adapt.QPM), fmtSockets(adapt.MemTP))

	actionTable(rep, "adaptive placer actions", adapt.Placer.Actions, "from", "to", "parts")
	return rep
}

func fmtSockets(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.1f", x)
	}
	return s
}
