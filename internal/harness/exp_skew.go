package harness

import "numacs/internal/core"

// runFig15 reproduces Figure 15: skewed workload, RR placement, the three
// scheduling strategies — stealing memory-intensive tasks hurts.
func runFig15(s Scale) *Report {
	rep := &Report{ID: "fig15", Title: "Skewed workload: OS vs Target vs Bound (RR)"}
	results := sweepStrategies(s.spec4(FourSocket), s, strategyCombos(), lowSel, true)
	return sweepFigure(rep, s, results, byStrategy, true)
}

// runFig16 reproduces Figure 16: the skewed workload with the three data
// placements under Bound — partitioning smooths the skew.
func runFig16(s Scale) *Report {
	rep := &Report{ID: "fig16", Title: "Skewed workload: RR vs IVP vs PP (Bound)"}
	results := sweepStrategies(s.spec4(FourSocket), s, placementCombos(core.Bound), lowSel, true)
	return sweepFigure(rep, s, results, byPlacement, true)
}

// runFig17 reproduces Figure 17: the same comparison at 10% selectivity,
// where the CPU-intensive materialization dominates and PP's local
// dictionaries win.
func runFig17(s Scale) *Report {
	rep := &Report{ID: "fig17", Title: "Skewed, 10% selectivity: RR vs IVP vs PP (Bound)"}
	results := sweepStrategies(s.spec4(FourSocket), s, placementCombos(core.Bound), highSel, true)
	return sweepFigure(rep, s, results, byPlacement, false)
}

// runFig18 reproduces Figure 18: Figure 17 with Target — stealing
// CPU-intensive tasks is fine and lifts RR.
func runFig18(s Scale) *Report {
	rep := &Report{ID: "fig18", Title: "Skewed, 10% selectivity: RR vs IVP vs PP (Target)"}
	results := sweepStrategies(s.spec4(FourSocket), s, placementCombos(core.Target), highSel, true)
	return sweepFigure(rep, s, results, byPlacement, false)
}

// placementCombos pairs RR, IVP4 and PP4 with one strategy.
func placementCombos(st core.Strategy) []combo {
	return []combo{
		{PlacementSpec{Kind: RR}, st},
		{PlacementSpec{Kind: IVP, Partitions: 4}, st},
		{PlacementSpec{Kind: PP, Partitions: 4}, st},
	}
}
