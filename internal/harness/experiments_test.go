package harness

import (
	"path/filepath"
	"strings"
	"testing"

	"numacs/internal/core"
)

// TestAllExperimentsRunAndRender executes every registered experiment at
// quick scale: each must produce at least one non-empty table and render
// exactly its committed scoreboard testdata/scoreboard/<id>.txt.
func TestAllExperimentsRunAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep := mustRun(t, e.ID)
			if rep.ID != e.ID {
				t.Fatalf("report id %q != %q", rep.ID, e.ID)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range rep.Tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q empty", tb.Name)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Fatalf("table %q row width %d != header %d", tb.Name, len(row), len(tb.Header))
					}
				}
			}
			out := rep.Render()
			if !strings.Contains(out, e.ID) {
				t.Fatal("render missing id")
			}
			assertGoldenFile(t, filepath.Join(scoreboardDir, e.ID+".txt"), out)
		})
	}
}

// TestRegistryCoversEveryPaperArtifact pins the experiment registry
// (scanbench -list): every paper artifact and every extension experiment is
// registered, and nothing else. (Cheap — runs even under -short.)
func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"table1", "fig1", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"table2", "psmsize", "repart", "adaptive", "adaptive-repl", "delta-merge",
		"admission", "shared-scan", "starjoin",
		"chaos-socket", "chaos-thermal", "chaos-antagonist", "chaos-writestorm",
		"chaos-burst", "planner"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestTable1Calibration(t *testing.T) {
	out := mustRun(t, "table1").Render()
	// Table 1 anchors (see the paper): exact latencies and the calibrated
	// bandwidths, including the Westmere broadcast cap.
	for _, anchor := range []string{
		"150 ns", "240 ns", "112 ns", "193 ns", "500 ns", "163 ns", "245 ns",
		"65.0 GiB/s", "47.5 GiB/s", "19.3 GiB/s",
		"8.8 GiB/s", "11.8 GiB/s", "9.8 GiB/s",
		"260.0 GiB/s", "1520.0 GiB/s",
	} {
		if !strings.Contains(out, anchor) {
			t.Errorf("table1 missing %q:\n%s", anchor, out)
		}
	}
}

func TestFig1NUMAAwareWins(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	rep := mustRun(t, "fig1")
	agnostic, aware := 0.0, 0.0
	for _, r := range filterMax(rep.Results, QuickScale().Max) {
		if r.Spec.Strategy == core.OSched {
			agnostic = r.QPM
		} else {
			aware = r.QPM
		}
	}
	// The full-scale gap is ~5x (see EXPERIMENTS.md); at quick scale the
	// tiny per-query scans dilute it.
	if aware < 2.0*agnostic {
		t.Errorf("NUMA-aware %.0f should be >=2x agnostic %.0f", aware, agnostic)
	}
}

func TestFig11LatencyFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	rep := mustRun(t, "fig11")
	cov := map[string]float64{}
	for _, r := range rep.Results {
		cov[r.Spec.Placement.String()] = r.Latency.CoeffOfVariation
	}
	// Figure 11: RR is unfair (high variance), the partitioned placements
	// are fair.
	if cov["RR"] <= cov["IVP4"] || cov["RR"] <= cov["PP4"] {
		t.Errorf("RR CoV %.2f should exceed IVP %.2f and PP %.2f", cov["RR"], cov["IVP4"], cov["PP4"])
	}
}

func TestFig14ThroughputDropsWithSelectivity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	rep := mustRun(t, "fig14")
	prev := 0.0
	for i, r := range rep.Results {
		// Non-increasing; at quick scale the tiny index-path cells can tie
		// (they are all bounded by per-query overhead, as in the paper's
		// flat low-selectivity region).
		if i > 0 && r.QPM > prev*1.02 {
			t.Errorf("TP should not rise with selectivity: %.0f then %.0f at %g",
				prev, r.QPM, r.Spec.Selectivity)
		}
		prev = r.QPM
	}
	// The index path at the lowest selectivity must clearly beat the
	// scan/materialization path at the highest.
	if rep.Results[0].QPM < 2.5*rep.Results[len(rep.Results)-1].QPM {
		t.Errorf("selectivity sweep spread too small: %.0f vs %.0f",
			rep.Results[0].QPM, rep.Results[len(rep.Results)-1].QPM)
	}
}

func TestPSMSizeExperimentMatchesPaper(t *testing.T) {
	rep := mustRun(t, "psmsize")
	out := rep.Render()
	// Section 4.3: ~3 KiB whole-socket, ~5 KiB IVP (the build may coalesce a
	// couple of ranges differently), ~102 KiB PP.
	if !strings.Contains(out, "3.2") && !strings.Contains(out, "3.1") {
		t.Errorf("whole-socket PSM size missing:\n%s", out)
	}
	if !strings.Contains(out, "101.6") && !strings.Contains(out, "102") {
		t.Errorf("PP PSM size missing:\n%s", out)
	}
}

func TestRepartExperimentRatio(t *testing.T) {
	rep := mustRun(t, "repart")
	out := rep.Render()
	if !strings.Contains(out, "IVP (move pages)") || !strings.Contains(out, "PP (rebuild columns)") {
		t.Fatalf("repart rows missing:\n%s", out)
	}
	// PP must be reported as several times slower.
	if !strings.Contains(out, "x") {
		t.Fatalf("relative cost missing:\n%s", out)
	}
}

// quickReports memoizes each experiment's quick-scale report, so the suite
// and the tests that inspect a report share one simulation per binary.
// Reports carrying a flight-recorder trace are not kept: holding their
// traces alive slows every later simulation's garbage collection more than
// re-running them costs.
var quickReports = map[string]*Report{}

func mustRun(t *testing.T, id string) *Report {
	t.Helper()
	if rep, ok := quickReports[id]; ok {
		return rep
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	rep := e.Run(QuickScale())
	if rep.Trace == nil {
		quickReports[id] = rep
	}
	return rep
}
