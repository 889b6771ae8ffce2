package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// side summarizes one side's runs of a metric.
type side struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// cell is one metric's comparison.
type cell struct {
	Unit    string `json:"unit"`
	Base    side   `json:"base"`
	Head    side   `json:"head"`
	Verdict string `json:"verdict"`
}

// compareFiles compares the untraced records of two files, workload by
// workload. Records pair up in file order, so base.jsonl and head.jsonl
// should come from alternating runs. It prints one JSON line per workload to
// stdout and a readable table to stderr, and returns 1 if any metric got
// worse.
func compareFiles(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readRecords(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	head, err := readRecords(headPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	status := 0
	enc := json.NewEncoder(stdout)
	for _, w := range workloads {
		b, h := base[w.Name], head[w.Name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		row := map[string]cell{}
		fmt.Fprintf(stderr, "%s (base %d runs, head %d runs)\n", w.Name, len(b), len(h))
		for _, m := range endToEnd {
			c := judge(m, metricValues(b, m.Name), metricValues(h, m.Name))
			row[m.Name] = c
			if c.Verdict == "worse" {
				status = 1
			}
			fmt.Fprintf(stderr, "  %-18s %-6s base %-12.5g [%.5g, %.5g]  head %-12.5g [%.5g, %.5g]  %s\n",
				m.Name, m.Unit, c.Base.Median, c.Base.Q1, c.Base.Q3, c.Head.Median, c.Head.Q1, c.Head.Q3, c.Verdict)
		}
		if err := enc.Encode(map[string]any{"workload": w.Name, "metrics": row}); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	return status
}

// judge gives a metric's verdict:
//   - improved: head wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ by more than base's quartile spread;
//   - worse: head's median is worse than base's by more than the bound;
//   - unresolved: base's quartile spread is wider than the bound, unless
//     every head run is better than every base run;
//   - same: otherwise.
func judge(m metric, base, head []float64) cell {
	summarize := func(v []float64) side {
		q1, med, q3 := quartiles(v)
		return side{len(v), q1, med, q3}
	}
	c := cell{Unit: m.Unit, Base: summarize(base), Head: summarize(head)}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs, wins := min(len(base), len(head)), 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	gain := c.Head.Median - c.Base.Median // > 0: head better
	if m.Better != "higher" {
		gain = -gain
	}
	spread := c.Base.Q3 - c.Base.Q1
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case pairs > 0 && wins*10 >= 9*pairs && gain > spread:
		c.Verdict = "improved"
	case -gain > m.Bound*math.Abs(c.Base.Median):
		c.Verdict = "worse"
	case spread > m.Bound*math.Abs(c.Base.Median) && !allBetter:
		c.Verdict = "unresolved"
	default:
		c.Verdict = "same"
	}
	return c
}

// readRecords reads the untraced workload records of a JSON-lines file,
// grouped by workload in file order; other lines are skipped.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Workload != "" && !rec.Traced {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return out, nil
}

// metricValues returns one metric's values across records.
func metricValues(recs []record, name string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[name].Value
	}
	return out
}
