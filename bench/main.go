// Command bench is the numacs benchmark. It drives four workloads through
// the layers' public APIs on the simulated 4-socket IvyBridge machine and
// reports host-time and simulated end-to-end metrics, or, with -trace 1,
// per-layer metrics. See README.md for the workloads, the metrics and how to
// read them.
//
// Without -workload it runs every workload, each in a child process of its
// own, and prints one JSON record per workload. With -workload it runs that
// workload in this process and prints its record followed by the result
// line {"correct", "attempted", "failed", "metrics"}. It exits 1 when an
// output check fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"text/tabwriter"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "seed of the dataset, the engine and every load generator")
	seconds := fs.Int("seconds", 8, "run length: each workload measures seconds x its simulated window per second")
	trace := fs.Int("trace", 0, "1 for a traced run, which reports per-layer metrics")
	traced := fs.Bool("traced", false, "same as -trace 1")
	list := fs.Bool("list", false, "print the workloads and metrics as JSON lines")
	compare := fs.Bool("compare", false, "compare two files of records: -compare base.jsonl head.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		return listAll(stdout)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare base.jsonl head.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "-trace takes 0 or 1")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "-seconds must be at least 1")
		return 2
	}
	tr := *traced || *trace == 1
	if *name == "" {
		return runAll(*seed, *seconds, tr, stdout, stderr)
	}
	def := findWorkload(*name)
	if def == nil {
		fmt.Fprintf(stderr, "unknown workload %q (see -list)\n", *name)
		return 2
	}
	return runOne(def, *seed, *seconds, tr, stdout, stderr)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ops counts the operations of the measured window: statements and write
// batches attempted, and those shed.
type ops struct {
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
}

// hostInfo names the machine a record was measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// record is the JSON line a workload run prints.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Traced      bool              `json:"traced"`
	SimSeconds  float64           `json:"sim_s"`
	Metrics     map[string]value  `json:"metrics"`
	Ops         ops               `json:"ops"`
	Stmts       uint64            `json:"stmts"`
	TailPct     float64           `json:"p999_pct"`
	Fingerprint string            `json:"fingerprint"`
	Checks      map[string]string `json:"checks"`
	Correct     bool              `json:"correct"`
	Host        hostInfo          `json:"host"`
}

// outcome is the last line of a single-workload run.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record renders a result with the metrics of defs.
func (r *result) record(defs []metric) record {
	rec := record{
		Workload: r.Workload, Seed: r.Seed, Seconds: r.Seconds, Traced: r.Traced,
		SimSeconds: r.SimSeconds, Metrics: map[string]value{},
		Ops: ops{
			Attempted: r.Attempted + r.WriteBatches,
			Failed:    r.Shed + r.WriteShed,
		},
		Stmts: r.Completed, TailPct: r.TailPct, Fingerprint: r.Fingerprint,
		Checks: map[string]string{}, Correct: true,
		Host: hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()},
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	for _, c := range r.checks() {
		rec.Checks[c.name] = "ok"
		if c.err != nil {
			rec.Checks[c.name] = c.err.Error()
			rec.Correct = false
		}
	}
	return rec
}

// runOne measures one workload in this process. A traced run measures the
// workload untraced first, for the fingerprint the traced run must
// reproduce.
func runOne(def *workloadDef, seed int64, seconds int, traced bool, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	r, err := measure(def, seed, seconds, false)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defs := endToEnd
	if traced {
		u := r
		if r, err = measure(def, seed, seconds, true); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		r.UntracedFingerprint = u.Fingerprint
		defs = perLayer
	}
	rec := r.record(defs)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := enc.Encode(outcome{rec.Correct, rec.Ops.Attempted, rec.Ops.Failed, rec.Metrics}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !rec.Correct {
		fmt.Fprintf(stderr, "%s: output checks failed: %v\n", def.Name, rec.Checks)
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, one at a time,
// so no workload inherits another's heap. It prints each child's record to
// stdout and a table of all of them to stderr.
func runAll(seed int64, seconds int, traced bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	status := 0
	var recs []record
	for _, def := range workloads {
		cmd := exec.Command(exe, "-workload", def.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", trace)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", def.Name, err)
			status = 1
		}
		line, rec, ok := firstRecord(out)
		if !ok {
			fmt.Fprintf(stderr, "%s: no record in the output\n", def.Name)
			status = 1
			continue
		}
		stdout.Write(append(line, '\n'))
		recs = append(recs, rec)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printTable(stderr, recs, defs)
	return status
}

// firstRecord returns the first line of out that holds a workload record.
func firstRecord(out []byte) ([]byte, record, bool) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Workload != "" {
			return sc.Bytes(), rec, true
		}
	}
	return nil, record{}, false
}

// printTable writes one row per metric and one column per workload.
func printTable(w io.Writer, recs []record, defs []metric) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, r := range recs {
		fmt.Fprintf(tw, "%s\t", r.Workload)
	}
	fmt.Fprint(tw, "\n")
	row := func(name, unit string, cell func(r record) string) {
		fmt.Fprintf(tw, "%s\t%s\t", name, unit)
		for _, r := range recs {
			fmt.Fprintf(tw, "%s\t", cell(r))
		}
		fmt.Fprint(tw, "\n")
	}
	for _, d := range defs {
		row(d.Name, d.Unit, func(r record) string { return strconv.FormatFloat(r.Metrics[d.Name].Value, 'g', 5, 64) })
	}
	row("stmts", "count", func(r record) string { return strconv.FormatUint(r.Stmts, 10) })
	row("failed", "count", func(r record) string { return strconv.FormatUint(r.Ops.Failed, 10) })
	row("correct", "", func(r record) string { return strconv.FormatBool(r.Correct) })
	tw.Flush()
}

// listAll prints each workload with its set-up and reason, then every
// metric with its unit, as JSON lines.
func listAll(stdout io.Writer) int {
	enc := json.NewEncoder(stdout)
	for _, w := range workloads {
		enc.Encode(map[string]any{"workload": w.Name, "why": w.Why, "setup": w.Setup,
			"warmup_sim_s": w.Warmup, "measured_sim_s_per_second": w.SimPerSecond})
	}
	for _, m := range endToEnd {
		enc.Encode(map[string]any{"metric": m.Name, "unit": m.Unit, "kind": "end_to_end",
			"better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayer {
		enc.Encode(map[string]any{"metric": m.Name, "unit": m.Unit, "kind": "per_layer", "better": m.Better})
	}
	return 0
}
