package harness

import (
	"fmt"
	"strings"

	"numacs/internal/insight"
	"numacs/internal/trace"
)

// TableBlock is one rendered table of a report.
type TableBlock struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Report is the output of one experiment: human-readable tables plus the raw
// results for programmatic checks.
type Report struct {
	ID          string
	Title       string
	Description string
	Tables      []*TableBlock
	Results     []Result

	// Trace is the experiment's flight-recorder data when the experiment
	// records one (the chaos suite attaches its faulted run's recorder);
	// scanbench -trace exports it as JSONL and a Chrome trace file.
	Trace *trace.Data `json:",omitempty"`

	// Triage is the insight layer's automated analysis of Trace (incident
	// detection, SLO verdicts, blame decomposition) when the experiment runs
	// one; scanbench -triage renders it and -json carries it structured.
	Triage *insight.TriageReport `json:",omitempty"`
}

// AddTable appends a table block.
func (r *Report) AddTable(name string, header []string) *TableBlock {
	tb := &TableBlock{Name: name, Header: header}
	r.Tables = append(r.Tables, tb)
	return tb
}

// AddRow appends a formatted row.
func (tb *TableBlock) AddRow(cells ...string) { tb.Rows = append(tb.Rows, cells) }

// Render formats the report as aligned ASCII tables.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Description != "" {
		fmt.Fprintf(&b, "%s\n", r.Description)
	}
	for _, tb := range r.Tables {
		b.WriteString("\n")
		if tb.Name != "" {
			fmt.Fprintf(&b, "-- %s --\n", tb.Name)
		}
		widths := make([]int, len(tb.Header))
		for i, h := range tb.Header {
			widths[i] = len(h)
		}
		for _, row := range tb.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
			b.WriteString("\n")
		}
		line(tb.Header)
		sep := make([]string, len(tb.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		line(sep)
		for _, row := range tb.Rows {
			line(row)
		}
	}
	return b.String()
}

// formatting helpers used by the experiment definitions.

func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
func ms(v float64) string  { return fmt.Sprintf("%.2fms", v*1e3) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
