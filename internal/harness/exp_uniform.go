package harness

import (
	"fmt"

	"numacs/internal/core"
	"numacs/internal/hw"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

// runTable1 reproduces Table 1 by measuring the simulated machines the way
// Intel MLC measures the real ones: analytic idle latencies plus streaming
// bandwidth microbenchmarks driven directly as flows.
func runTable1(s Scale) *Report {
	rep := &Report{ID: "table1", Title: "Latencies and peak bandwidths"}
	tb := rep.AddTable("", []string{"statistic", "4xIvybridge-EX", "32xIvybridge-EX", "8xWestmere-EX"})
	machines := []*topology.Machine{
		topology.FourSocketIvyBridge(),
		topology.ThirtyTwoSocketIvyBridge(),
		topology.EightSocketWestmere(),
	}
	row := func(name string, f func(m *topology.Machine) string) {
		cells := []string{name}
		for _, m := range machines {
			cells = append(cells, f(m))
		}
		tb.AddRow(cells...)
	}
	farthest := func(m *topology.Machine) int {
		best, bestH := 1, 0
		for d := 1; d < m.Sockets; d++ {
			if h := m.Hops(0, d); h > bestH {
				best, bestH = d, h
			}
		}
		return best
	}
	row("Local latency", func(m *topology.Machine) string {
		return fmt.Sprintf("%.0f ns", m.Latency(0, 0)*1e9)
	})
	row("1 hop latency", func(m *topology.Machine) string {
		// nearest remote socket
		best := 1
		for d := 1; d < m.Sockets; d++ {
			if m.Hops(0, d) < m.Hops(0, best) {
				best = d
			}
		}
		return fmt.Sprintf("%.0f ns", m.Latency(0, best)*1e9)
	})
	row("Max hops latency", func(m *topology.Machine) string {
		return fmt.Sprintf("%.0f ns", m.Latency(0, farthest(m))*1e9)
	})
	row("Local B/W", func(m *topology.Machine) string {
		return fmt.Sprintf("%.1f GiB/s", measureStream(m, 0, []int{0}))
	})
	row("1 hop B/W", func(m *topology.Machine) string {
		best := 1
		for d := 1; d < m.Sockets; d++ {
			if m.Hops(0, d) < m.Hops(0, best) {
				best = d
			}
		}
		return fmt.Sprintf("%.1f GiB/s", measureStream(m, best, []int{0}))
	})
	row("Max hops B/W", func(m *topology.Machine) string {
		return fmt.Sprintf("%.1f GiB/s", measureStream(m, farthest(m), []int{0}))
	})
	row("Total local B/W", func(m *topology.Machine) string {
		all := make([]int, m.Sockets)
		for i := range all {
			all[i] = i
		}
		return fmt.Sprintf("%.1f GiB/s", measureStream(m, -1, all))
	})
	return rep
}

// measureStream runs an MLC-style streaming microbenchmark: every hardware
// thread of the given sockets streams from dst (or locally when dst is -1)
// and the aggregate data rate is reported in GiB/s.
func measureStream(m *topology.Machine, dst int, srcSockets []int) float64 {
	eng := sim.New(100e-6)
	h := hw.New(eng, m)
	payload := 0.0
	for _, src := range srcSockets {
		d := dst
		if d < 0 {
			d = src
		}
		for c := 0; c < m.CoresPerSocket; c++ {
			for t := 0; t < m.ThreadsPerCore; t++ {
				demands, _ := h.StreamDemandsInto(nil, src, d, h.Core[src][c], 0.3)
				eng.StartFlow(&sim.Flow{
					Remaining: 1e15,
					RateCap:   m.StreamRate(src, d),
					Demands:   demands,
					OnAdvance: func(p float64) { payload += p },
				})
			}
		}
	}
	const window = 0.02
	eng.Run(window)
	return payload / window / (1 << 30)
}

// runFig1 reproduces Figure 1: the NUMA-agnostic vs NUMA-aware headline.
func runFig1(s Scale) *Report {
	rep := &Report{ID: "fig1", Title: "Impact of NUMA"}
	base := s.spec4(FourSocket)
	results := sweepStrategies(base, s, []combo{
		{PlacementSpec{Kind: RR}, core.OSched},
		{PlacementSpec{Kind: RR}, core.Bound},
	}, lowSel, false)
	rep.Results = results
	label := func(r Result) string {
		if r.Spec.Strategy == core.OSched {
			return "NUMA-agnostic"
		}
		return "NUMA-aware"
	}
	tpSweepTable(rep, "(a) throughput vs concurrent clients (q/min)", results, s, label)
	tb := rep.AddTable(fmt.Sprintf("(b) memory throughput of the sockets, %d clients (GiB/s)", s.Max),
		[]string{"case", "per-socket", "total"})
	for _, r := range filterMax(results, s.Max) {
		tb.AddRow(label(r), perSocketRow(r), f1(r.MemTPTotal))
	}
	return rep
}

// runFig8 reproduces Figure 8.
func runFig8(s Scale) *Report {
	rep := &Report{ID: "fig8", Title: "OS vs Target vs Bound (RR, uniform, low selectivity)"}
	results := sweepStrategies(s.spec4(FourSocket), s, strategyCombos(), lowSel, false)
	return sweepFigure(rep, s, results, byStrategy, true)
}

// runFig9 reproduces Figure 9 on the broadcast-coherence Westmere machine.
func runFig9(s Scale) *Report {
	rep := &Report{ID: "fig9", Title: "OS vs Target vs Bound on 8-socket Westmere-EX"}
	results := sweepStrategies(s.spec4(EightSocket), s, strategyCombos(), lowSel, false)
	return sweepFigure(rep, s, results, byStrategy, false)
}

// strategyCombos pairs RR placement with the three scheduling strategies.
func strategyCombos() []combo {
	return []combo{
		{PlacementSpec{Kind: RR}, core.OSched},
		{PlacementSpec{Kind: RR}, core.Target},
		{PlacementSpec{Kind: RR}, core.Bound},
	}
}

// runFig10 reproduces Figure 10: parallelism x placement.
func runFig10(s Scale) *Report {
	rep := &Report{ID: "fig10", Title: "Intra-query parallelism x data placement (Bound)"}
	base := s.spec4(FourSocket)
	combos := placementCombos(core.Bound)
	var all []Result
	for _, parallel := range []bool{false, true} {
		b := base
		b.Parallel = parallel
		all = append(all, sweepStrategies(b, s, combos, lowSel, false)...)
	}
	rep.Results = all
	label := func(r Result) string {
		mode := "w/ par"
		if !r.Spec.Parallel {
			mode = "w/o par"
		}
		return fmt.Sprintf("%s %s", r.Spec.Placement, mode)
	}
	tpSweepTable(rep, "throughput (q/min)", all, s, label)
	tb := rep.AddTable(fmt.Sprintf("LLC load misses, %d clients (cache lines)", s.Max),
		[]string{"case", "local", "remote"})
	for _, r := range filterMax(all, s.Max) {
		tb.AddRow(label(r), f0(r.LLCLocal), f0(r.LLCRemote))
	}
	return rep
}

// runFig11 reproduces Figure 11's latency distributions.
func runFig11(s Scale) *Report {
	rep := &Report{ID: "fig11", Title: "Latency distributions (Bound)"}
	base := s.spec4(FourSocket)
	placements := []PlacementSpec{
		{Kind: RR}, {Kind: IVP, Partitions: 4}, {Kind: PP, Partitions: 4},
	}
	clientCounts := []int{}
	for _, n := range s.Clients {
		if n >= 256 {
			clientCounts = append(clientCounts, n)
		}
	}
	if len(clientCounts) == 0 {
		clientCounts = []int{s.Max}
	}
	tb := rep.AddTable("latency percentiles", []string{"placement", "clients",
		"mean", "p5", "p25", "p50", "p75", "p95", "max", "CoV"})
	for _, p := range placements {
		for _, n := range clientCounts {
			r := Run(base.cell(p, core.Bound, n, lowSel))
			rep.Results = append(rep.Results, r)
			l := r.Latency
			tb.AddRow(p.String(), itoa(n), ms(l.Mean), ms(l.P5), ms(l.P25), ms(l.P50),
				ms(l.P75), ms(l.P95), ms(l.Max), f2(l.CoeffOfVariation))
		}
	}
	return rep
}

// runFig12 reproduces Figure 12: strategies x IVP granularity on 32 sockets.
func runFig12(s Scale) *Report {
	rep := &Report{ID: "fig12", Title: "Scheduling x IVP granularity, 32 sockets"}
	base := s.spec4(ThirtyTwoSocket)
	granularities := []PlacementSpec{
		{Kind: RR},
		{Kind: IVP, Partitions: 2},
		{Kind: IVP, Partitions: 4},
		{Kind: IVP, Partitions: 8},
		{Kind: IVP, Partitions: 16},
		{Kind: IVP, Partitions: 32},
	}
	tb := rep.AddTable(fmt.Sprintf("throughput, %d clients (q/min)", s.Max),
		[]string{"placement", "OS", "Target", "Bound"})
	for _, p := range granularities {
		row := []string{p.String()}
		for _, st := range []core.Strategy{core.OSched, core.Target, core.Bound} {
			r := Run(base.cell(p, st, s.Max, lowSel))
			rep.Results = append(rep.Results, r)
			row = append(row, f0(r.QPM))
		}
		tb.AddRow(row...)
	}
	return rep
}

// runFig13 reproduces Figure 13: client sweep of granularities on 32 sockets.
func runFig13(s Scale) *Report {
	rep := &Report{ID: "fig13", Title: "Concurrency sweep x granularity, 32 sockets"}
	base := s.spec4(ThirtyTwoSocket)
	for _, st := range []core.Strategy{core.Target, core.Bound} {
		results := sweepStrategies(base, s, []combo{
			{PlacementSpec{Kind: RR}, st},
			{PlacementSpec{Kind: IVP, Partitions: 8}, st},
			{PlacementSpec{Kind: IVP, Partitions: 32}, st},
		}, lowSel, false)
		rep.Results = append(rep.Results, results...)
		tpSweepTable(rep, st.String()+" throughput (q/min)", results, s, byPlacement)
	}
	return rep
}

// runFig14 reproduces Figure 14: the selectivity sweep with indexes enabled.
func runFig14(s Scale) *Report {
	rep := &Report{ID: "fig14", Title: "Selectivity sweep with indexes (RR, Bound)"}
	base := s.spec4(FourSocket)
	base.Dataset.WithIndex = true
	selectivities := []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	tb := rep.AddTable(fmt.Sprintf("%d clients", s.Max),
		[]string{"selectivity", "TP(q/min)", "memTP(GiB/s)", "LLC loc", "LLC rem", "CPU", "path"})
	for _, sel := range selectivities {
		spec := base.cell(PlacementSpec{Kind: RR}, core.Bound, s.Max, sel)
		spec.UseIndex = true
		r := Run(spec)
		rep.Results = append(rep.Results, r)
		path := "scan"
		if sel <= core.DefaultCosts().IndexSelectivityThreshold {
			path = "index"
		}
		tb.AddRow(fmt.Sprintf("%g%%", sel*100), f0(r.QPM), f1(r.MemTPTotal),
			f0(r.LLCLocal), f0(r.LLCRemote), pct(r.CPULoad), path)
	}
	return rep
}
