package harness

import (
	"fmt"
	"sort"

	"numacs/internal/core"
)

// Scale sizes the experiments. Full scale regenerates the paper's figures;
// Quick scale keeps unit tests fast.
type Scale struct {
	Name    string
	Rows    int // dataset rows on the 4/8-socket machines
	Rows32  int // dataset rows on the 16/32-socket machines
	Warmup  float64
	Measure float64
	Step    float64 // simulator step for 4/8-socket machines
	Step32  float64 // simulator step for 16/32-socket machines
	Clients []int   // concurrency sweep
	Max     int     // the "1024 concurrent clients" analysis point
}

// FullScale is the default used by cmd/scanbench and the root benchmarks.
func FullScale() Scale {
	return Scale{
		Name: "full", Rows: 200_000, Rows32: 200_000,
		Warmup: 0.05, Measure: 0.2,
		Step: 5e-6, Step32: 50e-6,
		Clients: []int{1, 4, 16, 64, 256, 1024}, Max: 1024,
	}
}

// QuickScale shrinks everything for unit tests.
func QuickScale() Scale {
	return Scale{
		Name: "quick", Rows: 60_000, Rows32: 60_000,
		Warmup: 0.02, Measure: 0.08,
		Step: 25e-6, Step32: 100e-6,
		Clients: []int{16, 256}, Max: 256,
	}
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(Scale) *Report
	// Explain, when non-nil, renders the experiment's workload through the
	// planner as stable EXPLAIN text (logical and optimized physical plans on
	// a fixed fixture schema) — TestPlanGoldens compares it with
	// testdata/plans/<id>.txt.
	Explain func() string
}

// All returns every experiment in paper order.
func All() []Experiment { return registry }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

func init() {
	register(Experiment{ID: "table1", Title: "Latencies and peak bandwidths of the three servers",
		Description: "Paper Table 1: idle latencies and MLC-style streaming bandwidths, measured on the simulated machines.",
		Run:         runTable1})
	register(Experiment{ID: "fig1", Title: "Impact of NUMA (NUMA-agnostic vs NUMA-aware)",
		Description: "Paper Figure 1: throughput vs concurrency for OS vs Bound with RR-placed columns, and per-socket memory throughput at peak concurrency.",
		Run:         runFig1})
	register(Experiment{ID: "fig8", Title: "Impact of scheduling (OS/Target/Bound, RR, uniform)",
		Description: "Paper Figure 8: throughput and performance metrics for the three scheduling strategies on the 4-socket machine.",
		Run:         runFig8})
	register(Experiment{ID: "fig9", Title: "Impact of the cache coherence protocol (8-socket Westmere)",
		Description: "Paper Figure 9: same as Figure 8 on the broadcast-snoop machine; the NUMA-aware gain shrinks to ~2x.",
		Run:         runFig9})
	register(Experiment{ID: "fig10", Title: "Impact of intra-query parallelism and data placement",
		Description: "Paper Figure 10: RR/IVP/PP with parallelism disabled and enabled.",
		Run:         runFig10})
	register(Experiment{ID: "fig11", Title: "Query latency distributions (RR vs IVP vs PP)",
		Description: "Paper Figure 11 (violin plots rendered as percentiles): RR is unfair, partitioned placements are fair.",
		Run:         runFig11})
	register(Experiment{ID: "fig12", Title: "Impact of scale: partitioning granularity on 32 sockets",
		Description: "Paper Figure 12: scheduling strategies x IVP granularities at peak concurrency; unnecessary partitioning loses up to ~70%, Target loses up to ~58% vs Bound.",
		Run:         runFig12})
	register(Experiment{ID: "fig13", Title: "Concurrency sweep of partitioning granularities (32 sockets)",
		Description: "Paper Figure 13: partitioning wins at low concurrency, RR at high concurrency.",
		Run:         runFig13})
	register(Experiment{ID: "fig14", Title: "Impact of selectivity (with indexes)",
		Description: "Paper Figure 14: selectivity sweep 0.001%..10%; the optimizer switches from index lookups to scans and the critical path shifts CPU->memory->CPU.",
		Run:         runFig14})
	register(Experiment{ID: "fig15", Title: "Skewed workload: impact of stealing memory-intensive tasks",
		Description: "Paper Figure 15: with RR placement and an 80/20 skew, Target loses throughput vs Bound despite higher CPU load.",
		Run:         runFig15})
	register(Experiment{ID: "fig16", Title: "Skewed workload: impact of partitioning",
		Description: "Paper Figure 16: IVP and PP smooth out the skew and recover the uniform-workload throughput.",
		Run:         runFig16})
	register(Experiment{ID: "fig17", Title: "Skewed workload at high selectivity: partitioning type",
		Description: "Paper Figure 17: at 10% selectivity execution is materialization-dominated; PP (local dictionaries) beats IVP (interleaved dictionaries).",
		Run:         runFig17})
	register(Experiment{ID: "fig18", Title: "Skewed, high selectivity, with stealing (Target)",
		Description: "Paper Figure 18: stealing CPU-intensive tasks helps RR reach IVP throughput; PP stays best.",
		Run:         runFig18})
	register(Experiment{ID: "fig19", Title: "TPC-H Q1 and BW-EML style workloads (16 sockets)",
		Description: "Paper Figure 19: PP granularities x Target/Bound; CPU-intensive Q1 favours Target, memory-intensive BW-EML favours Bound; throughput normalized to the best observed.",
		Run:         runFig19})
	register(Experiment{ID: "table2", Title: "Placement property matrix",
		Description: "Paper Table 2: workload properties fitted by each placement, with the measured evidence from the other experiments.",
		Run:         runTable2})
	register(Experiment{ID: "psmsize", Title: "PSM metadata sizes (Section 4.3)",
		Description: "Metadata size of a column's PSMs on a 32-socket machine for whole-socket, IVP, and PP placements.",
		Run:         runPSMSize})
	register(Experiment{ID: "repart", Title: "Repartitioning cost: IVP vs PP (Section 6.2.3)",
		Description: "IVP moves pages; PP rebuilds columns and duplicates dictionary values.",
		Run:         runRepart})
	register(Experiment{ID: "adaptive", Title: "Adaptive data placement (Section 7)",
		Description: "A skewed workload on RR placement, static vs with the adaptive data placer balancing socket utilization.",
		Run:         runAdaptive})
	register(Experiment{ID: "adaptive-repl", Title: "Adaptive replication of read-hot columns (Sections 4.2 + 7)",
		Description: "A read-hot single-column skew of unparallelized scans, balanced by the adaptive placer with and without the replication lever: moving only relocates the hotspot and partitioning forces single-task scans remote (Figure 10), while a replica on every socket serves each scan locally; throughput and QPI traffic tracked over virtual time.",
		Run:         runAdaptiveRepl})
	register(Experiment{ID: "delta-merge", Title: "Delta-store write path: append, scan degradation, merge, recovery (Sections 2 + 7)",
		Description: "Mixed read/write skew on the main/delta architecture: an update-heavy write mix grows a hot column's uncompressed per-socket delta until scans degrade, the write-aware placer fires a background merge that rebuilds the main and restores throughput, and the write-guard reclaims the replicas of a column that turned write-hot.",
		Run:         runDeltaMerge})
	register(Experiment{ID: "admission", Title: "Statement admission control and elastic concurrency (front-end QoS)",
		Description: "Multi-tenant open-loop overload at >2x engine capacity (greedy, bursty, well-behaved, and writer tenants): weighted-fair admission, saturation-driven elastic concurrency and task granularity, and per-class deadline shedding keep p99 bounded and goodput near the weight shares, while the queues-only engine grows its backlog and tail without bound.",
		Run:         runAdmission})
	register(Experiment{ID: "shared-scan", Title: "Shared scan cohorts: one memory pass for N concurrent scans",
		Description: "A same-column hot-scan mix on the 4-socket machine with the cohort layer on vs off: concurrent scans of one column merge into cohorts (bounded join window, ClockScan-style mid-flight attach) that stream the column once and evaluate all member predicates per chunk, cutting physical MC bytes per statement while every statement keeps its logical traffic and truthful latency.",
		Run:         runSharedScan})
	register(Experiment{ID: "chaos-socket", Title: "Chaos: socket failure and return under the adaptive placer",
		Description: "Fault injection: socket 1 goes offline mid-run (queued tasks drained and re-placed, workers parked, replicas invalidated) and returns three windows later; graceful-degradation invariants bound the throughput dip, require recovery, and demand forward progress in every window.",
		Run:         chaosSocket.run})
	register(Experiment{ID: "chaos-thermal", Title: "Chaos: memory-controller thermal throttling",
		Description: "Fault injection: the serving socket's MC throttles to 30% of nominal for three windows under an MC-bound scan mix; throughput must track the capacity loss without collapsing and return to baseline when the throttle lifts.",
		Run:         chaosThermal.run})
	register(Experiment{ID: "chaos-antagonist", Title: "Chaos: antagonist tenant thrashing column heat",
		Description: "Adversarial traffic: an antagonist tenant rotates its hot column every window to defeat the adaptive placer's replication; weighted-fair admission must preserve the victim tenant's goodput and the placer's churn must stay bounded.",
		Run:         chaosAntagonist.run})
	register(Experiment{ID: "chaos-writestorm", Title: "Chaos: write storm racing background merges under shared scans",
		Description: "Adversarial traffic: a socket-0 write storm floods the shared-scanned column's delta mid-run, forcing a background merge to race live cohort passes; the race must resolve without stalling and throughput must recover after the storm.",
		Run:         chaosWriteStorm.run})
	register(Experiment{ID: "chaos-burst", Title: "Chaos: arrival bursts at the shared-scan join-window boundary",
		Description: "Adversarial traffic: an open-loop tenant fires arrival spikes exactly one join window long at the shared column; the spikes must collapse into cohorts and the steady tenant's completion rate and p99 must survive.",
		Run:         chaosBurst.run})
	register(Experiment{ID: "starjoin", Title: "Composed star-join statements (operator pipeline)",
		Description: "Scan -> join -> aggregate in one scheduled statement: strategies x hash-table placements on the 4-socket machine, enabled by the internal/exec operator-pipeline layer.",
		Run:         runStarJoin,
		Explain:     explainStarJoin})
	register(Experiment{ID: "planner", Title: "Plan-driven cohorts: batch planning vs arrival timing",
		Description: "A mixed multi-statement workload (shared-column scans + star joins) submitted either statement-by-statement (cohorts form from arrival timing alone) or as planned batches (common subplans detected at plan time feed the cohort registry directly); plan-driven grouping must form cohorts timing misses.",
		Run:         runPlanner,
		Explain:     explainPlanner})
}

// ---- shared sweep helpers ---------------------------------------------------

func (s Scale) spec4(k MachineKind) Spec {
	rows := s.Rows
	step := s.Step
	if k == ThirtyTwoSocket || k == SixteenSocket {
		rows = s.Rows32
		step = s.Step32
	}
	return Spec{
		Machine: k,
		Dataset: scaledDataset(k, rows, false),
		Warmup:  s.Warmup, Measure: s.Measure, Step: step,
		Parallel: true,
		Seed:     1,
	}
}

// lowSel is the memory-intensive scan selectivity used by most figures
// (paper: 0.001%).
const lowSel = 1e-5

// highSel is the materialization-dominated selectivity of Figures 17/18
// (paper: 10%).
const highSel = 0.10

func addMetricsTable(rep *Report, name string, results []Result, label func(Result) string) {
	tb := rep.AddTable(name, []string{"case", "TP(q/min)", "CPU", "tasks", "stolen",
		"LLC loc", "LLC rem", "memTP(GiB/s)", "IPC", "QPI(GiB)", "QPIdata(GiB)"})
	for _, r := range results {
		tb.AddRow(label(r), f0(r.QPM), pct(r.CPULoad), itoa(int(r.Tasks)), itoa(int(r.Stolen)),
			f0(r.LLCLocal), f0(r.LLCRemote), f1(r.MemTPTotal), f2(r.IPC),
			f1(r.QPITotalGiB), f1(r.QPIDataGiB))
	}
}

func perSocketRow(r Result) string {
	s := ""
	for i, v := range r.MemTP {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("S%d=%.1f", i+1, v)
	}
	return s
}

// combo pairs a placement with a scheduling strategy for a sweep.
type combo struct {
	p  PlacementSpec
	st core.Strategy
}

// cell returns the Spec with one sweep point's placement, strategy,
// concurrency and selectivity.
func (sp Spec) cell(p PlacementSpec, st core.Strategy, clients int, sel float64) Spec {
	sp.Placement, sp.Strategy, sp.Clients, sp.Selectivity = p, st, clients, sel
	return sp
}

// sweepStrategies runs a clients sweep for each (placement, strategy) combo.
func sweepStrategies(base Spec, s Scale, combos []combo, sel float64, skew bool) []Result {
	var out []Result
	for _, c := range combos {
		for _, n := range s.Clients {
			spec := base.cell(c.p, c.st, n, sel)
			spec.Skew = skew
			out = append(out, Run(spec))
		}
	}
	return out
}

// byStrategy and byPlacement label sweep results by the varied dimension.
func byStrategy(r Result) string  { return r.Spec.Strategy.String() }
func byPlacement(r Result) string { return r.Spec.Placement.String() }

// sweepFigure attaches a sweep's results to the report and renders the
// throughput-vs-clients table, the peak-concurrency metrics table and, when
// perSocket is set, the peak-concurrency per-socket memory throughput.
func sweepFigure(rep *Report, s Scale, results []Result, label func(Result) string, perSocket bool) *Report {
	rep.Results = results
	tpSweepTable(rep, "throughput (q/min)", results, s, label)
	peak := filterMax(results, s.Max)
	addMetricsTable(rep, fmt.Sprintf("performance metrics, %d clients", s.Max), peak, label)
	if perSocket {
		tb := rep.AddTable("per-socket memory throughput (GiB/s)", []string{"case", "per-socket"})
		for _, r := range peak {
			tb.AddRow(label(r), perSocketRow(r))
		}
	}
	return rep
}

func tpSweepTable(rep *Report, name string, results []Result, s Scale, label func(Result) string) {
	// Group results by label, columns by client count.
	header := []string{"case"}
	for _, n := range s.Clients {
		header = append(header, fmt.Sprintf("%dcl", n))
	}
	tb := rep.AddTable(name, header)
	byLabel := map[string][]Result{}
	var order []string
	for _, r := range results {
		l := label(r)
		if _, ok := byLabel[l]; !ok {
			order = append(order, l)
		}
		byLabel[l] = append(byLabel[l], r)
	}
	for _, l := range order {
		rs := byLabel[l]
		sort.Slice(rs, func(i, j int) bool { return rs[i].Spec.Clients < rs[j].Spec.Clients })
		row := []string{l}
		for _, r := range rs {
			row = append(row, f0(r.QPM))
		}
		tb.AddRow(row...)
	}
}

func filterMax(results []Result, max int) []Result {
	var out []Result
	for _, r := range results {
		if r.Spec.Clients == max {
			out = append(out, r)
		}
	}
	return out
}
