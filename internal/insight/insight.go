// Package insight is the analysis layer on top of the flight recorder: it
// consumes trace.Data (statement spans, the causal decision log, windowed
// time-series) and produces a structured triage report, so "the p99 moved"
// becomes a machine-generated diagnosis instead of a human staring at dumps.
// Three analyses compose into one report:
//
//   - Blame decomposition: every completed statement's latency splits along
//     its critical path into admission-queue wait, shared-scan join-window
//     wait, scheduler wait, and execution (all derived from the span
//     timestamps the recorder stamped). The splits aggregate into per-class
//     and per-tenant blame tables with p50/p99 latencies and the component
//     breakdown of the tail, so a regression names its dominant wait.
//   - Incident detection: a robust change-point detector (EWMA mean with an
//     exponentially weighted MAD-style scale) runs over every recorded
//     time-series — completion throughput, total and per-socket memory
//     bandwidth, scheduler queue depth, per-tenant completions — and each
//     detected dip or spike is correlated with the decision-log entries in
//     its (slack-padded) window. An incident with no candidate decisions is
//     reported as unexplained, never dropped.
//   - SLO verdicts: a declarative spec (per-class latency percentile
//     targets, a tenant-fairness floor, a per-window progress floor)
//     evaluates into pass/fail/skipped verdicts with the blaming evidence
//     attached: the dominant tail component for latency misses, the
//     overlapping incidents for progress stalls.
//
// Analyze is a pure function of the recorded data: it reads the trace and
// builds a report, touching no engine state, so it runs identically on a
// live run (harness auto-triage on a finished run) and on any trace.Data
// built elsewhere.
package insight

import (
	"sort"

	"numacs/internal/trace"
)

// Config tunes the analyzer. The zero value is usable: every zero field
// falls back to the documented default (DefaultConfig fills them in).
type Config struct {
	// Alpha is the EWMA smoothing factor for the detector's mean and scale
	// (default 0.35): large enough to adapt within ~2 windows of a level
	// shift, so a sustained fault raises one incident at its onset instead
	// of re-alarming every window.
	Alpha float64
	// PrimeWindows is how many leading windows prime the detector before it
	// may alarm (default 3). Priming swallows workload ramp-up and gives the
	// EWMA a baseline; runs shorter than PrimeWindows+1 windows can never
	// produce incidents.
	PrimeWindows int
	// ZThreshold is the robust z-score a window's deviation must reach to
	// open an incident (default 3.5).
	ZThreshold float64
	// MinRelScale floors the detector's deviation scale at this fraction of
	// the EWMA mean (default 0.12), so near-constant series do not alarm on
	// noise-level wiggles: a deviation must exceed roughly
	// ZThreshold*MinRelScale of the baseline no matter how quiet the series.
	MinRelScale float64
	// SlackWindows pads an incident's decision-correlation interval by this
	// many windows before its onset (default 1): control planes act with up
	// to a window of latency between a decision and its windowed effect.
	SlackWindows float64
	// MaxSuspects caps an incident's suspect list (default 12); when over
	// cap, the decisions nearest the incident onset are kept.
	MaxSuspects int
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		Alpha:        0.35,
		PrimeWindows: 3,
		ZThreshold:   3.5,
		MinRelScale:  0.12,
		SlackWindows: 1,
		MaxSuspects:  12,
	}
}

// fill replaces zero fields with defaults.
func (c Config) fill() Config {
	d := DefaultConfig()
	if c.Alpha <= 0 {
		c.Alpha = d.Alpha
	}
	if c.PrimeWindows <= 0 {
		c.PrimeWindows = d.PrimeWindows
	}
	if c.ZThreshold <= 0 {
		c.ZThreshold = d.ZThreshold
	}
	if c.MinRelScale <= 0 {
		c.MinRelScale = d.MinRelScale
	}
	if c.SlackWindows <= 0 {
		c.SlackWindows = d.SlackWindows
	}
	if c.MaxSuspects <= 0 {
		c.MaxSuspects = d.MaxSuspects
	}
	return c
}

// TriageReport is the analyzer's structured output: the blame tables, the
// detected incidents, and the SLO verdicts, plus enough context (the dump
// meta, record counts) to read it standalone.
type TriageReport struct {
	// Meta echoes the analyzed dump's meta line. A nonzero
	// Meta.DecisionsDropped means suspect sets may be incomplete (the ring
	// discarded the oldest decisions); Render prints the caveat.
	Meta trace.Meta `json:"meta"`
	// Statements and Windows count the analyzed records.
	Statements int `json:"statements"`
	Windows    int `json:"windows"`

	// ByClass and ByTenant are the blame tables, one row per admission class
	// / tenant (sorted by name; the empty group renders as "-").
	ByClass  []BlameRow `json:"by_class,omitempty"`
	ByTenant []BlameRow `json:"by_tenant,omitempty"`

	// Incidents are the detected time-series anomalies with their suspect
	// decisions, ordered by onset window then series name.
	Incidents []Incident `json:"incidents,omitempty"`

	// Verdicts are the SLO evaluations, in spec order.
	Verdicts []Verdict `json:"verdicts,omitempty"`
}

// FailedVerdicts counts the verdicts that evaluated to fail.
func (r *TriageReport) FailedVerdicts() int {
	n := 0
	for _, v := range r.Verdicts {
		if v.Status == VerdictFail {
			n++
		}
	}
	return n
}

// Analyze runs the full triage pipeline — blame decomposition, incident
// detection, SLO evaluation — over one recorder dump with the default
// analyzer tuning. It is a pure function of its inputs: no engine state is
// read or written, so it applies equally to a live run's Data() and to a
// Data built by hand.
func Analyze(d *trace.Data, spec SLOSpec) *TriageReport {
	return AnalyzeWith(d, spec, Config{})
}

// AnalyzeWith is Analyze with explicit analyzer tuning.
func AnalyzeWith(d *trace.Data, spec SLOSpec, cfg Config) *TriageReport {
	cfg = cfg.fill()
	rep := &TriageReport{
		Meta:       d.Meta,
		Statements: len(d.Statements),
		Windows:    len(d.Samples),
	}
	rep.ByClass = blameTable(d.Statements, func(s *trace.Statement) string { return s.Class })
	rep.ByTenant = blameTable(d.Statements, func(s *trace.Statement) string { return s.Tenant })
	rep.Incidents = detectIncidents(d, cfg)
	rep.Verdicts = evaluateSLOs(d, spec, rep)
	return rep
}

// sortRows orders blame rows by group name for stable output.
func sortRows(rows []BlameRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Group < rows[j].Group })
}
