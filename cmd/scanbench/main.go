// Command scanbench regenerates the paper's tables and figures on the
// simulated NUMA machines.
//
// Usage:
//
//	scanbench -list
//	scanbench -exp fig8
//	scanbench -all
//	scanbench -exp fig12 -scale quick
//	scanbench -exp shared-scan -scale quick -json
//	scanbench -exp chaos-socket -scale quick -trace traces/
//	scanbench -exp chaos-socket -scale quick -triage
//	scanbench -explain planner
//
// -list prints one registered experiment id per line, so scripts can
// enumerate every experiment without a hand-kept list; -explain <id> prints
// the experiment's EXPLAIN rendering (logical and optimized physical plans
// over a fixed fixture schema) — the exact text TestPlanGoldens compares
// with testdata/plans/<id>.txt — and exits with status 2 for experiments
// that expose no planner walkthrough; -json emits each report as a JSON
// document instead of rendered tables — the format the CI bench job
// archives into the BENCH_<run>.json
// perf-trajectory artifact. -trace <dir> writes each experiment's
// flight-recorder data (when the experiment records one) as <dir>/<id>.jsonl
// plus a Perfetto/chrome://tracing-loadable <dir>/<id>.trace.json. -triage
// runs the insight layer's automated analysis on each traced experiment and
// prints the triage report (incidents with suspect decisions, SLO verdicts,
// blame decomposition); combined with -trace it also writes
// <dir>/<id>.triage.json, and with -json the triage rides inside the report
// document. -cpuprofile / -memprofile write pprof profiles of the whole
// invocation. Each experiment prints the same rows/series the paper reports;
// see EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"numacs/internal/harness"
	"numacs/internal/insight"
	"numacs/internal/trace"
)

func main() {
	var (
		list     = flag.Bool("list", false, "print registered experiment ids, one per line, and exit")
		explain  = flag.String("explain", "", "print the experiment's planner EXPLAIN rendering and exit")
		exp      = flag.String("exp", "", "experiment id to run (comma-separated for several)")
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.String("scale", "full", "experiment scale: full or quick")
		jsonOut  = flag.Bool("json", false, "emit each report as JSON instead of rendered tables")
		traceDir = flag.String("trace", "", "directory to write flight-recorder exports into (<id>.jsonl and <id>.trace.json)")
		triage   = flag.Bool("triage", false, "run the insight analyzer on traced experiments and print the triage report (with -trace also writes <id>.triage.json)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := createWithDirs(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := createWithDirs(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, id := range harness.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *explain != "" {
		e, ok := harness.ByID(*explain)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *explain)
			os.Exit(2)
		}
		if e.Explain == nil {
			fmt.Fprintf(os.Stderr, "experiment %q exposes no planner EXPLAIN\n", *explain)
			os.Exit(2)
		}
		fmt.Print(e.Explain())
		return
	}

	var sc harness.Scale
	switch *scale {
	case "full":
		sc = harness.FullScale()
	case "quick":
		sc = harness.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want full or quick)\n", *scale)
		os.Exit(2)
	}

	var ids []string
	switch {
	case *all:
		ids = harness.IDs()
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -exp <id>, -all, or -list")
		os.Exit(2)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, id := range ids {
		e, ok := harness.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		start := time.Now()
		rep := e.Run(sc)
		var tri *insight.TriageReport
		if *triage {
			tri = triageFor(rep)
			if tri == nil {
				fmt.Fprintf(os.Stderr, "[%s: no flight-recorder data, skipping -triage]\n", e.ID)
			}
		}
		if *traceDir != "" {
			if err := writeTrace(*traceDir, e.ID, rep); err != nil {
				fmt.Fprintf(os.Stderr, "writing trace for %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			if tri != nil {
				if err := writeTriage(*traceDir, e.ID, tri); err != nil {
					fmt.Fprintf(os.Stderr, "writing triage for %s: %v\n", e.ID, err)
					os.Exit(1)
				}
			}
		}
		if *jsonOut {
			// Keep stdout pure JSON; the timing note goes to stderr.
			rep.Triage = tri
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "encoding %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "[%s: %s scale, wall %.1fs]\n", e.ID, sc.Name, time.Since(start).Seconds())
			continue
		}
		fmt.Println(rep.Render())
		if tri != nil {
			fmt.Println(tri.Render())
		}
		fmt.Printf("[%s: %s scale, wall %.1fs]\n\n", e.ID, sc.Name, time.Since(start).Seconds())
	}
}

// triageFor returns the experiment's triage report: the one the experiment
// already attached (the chaos suite analyzes against its own SLO spec), or a
// fresh analysis under the baseline no-livelock objective for traced
// experiments that attach none. Untraced experiments return nil.
func triageFor(rep *harness.Report) *insight.TriageReport {
	if rep.Triage != nil {
		return rep.Triage
	}
	if rep.Trace == nil {
		return nil
	}
	return insight.Analyze(rep.Trace, insight.SLOSpec{MinWindowDone: 1})
}

// writeTriage writes the structured triage report as <dir>/<id>.triage.json
// beside the flight-recorder exports.
func writeTriage(dir, id string, tri *insight.TriageReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".triage.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tri); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// createWithDirs creates the file, making parent directories as needed (the
// CI bench job points -cpuprofile/-memprofile into a not-yet-existing
// profiles/ directory).
func createWithDirs(path string) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(path)
}

// writeTrace exports an experiment's flight-recorder data into dir as a JSONL
// dump and a Chrome trace-event file. Experiments that record no trace are
// skipped with a note — only the chaos suite attaches one today.
func writeTrace(dir, id string, rep *harness.Report) error {
	if rep.Trace == nil {
		fmt.Fprintf(os.Stderr, "[%s: no flight-recorder data, skipping -trace export]\n", id)
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, id+".jsonl"))
	if err != nil {
		return err
	}
	if err := rep.Trace.WriteJSONL(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, id+".trace.json"))
	if err != nil {
		return err
	}
	if err := trace.ExportChrome(cf, rep.Trace); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}
