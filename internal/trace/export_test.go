package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"numacs/internal/metrics"
)

// chromeDecode parses an ExportChrome output back into generic events,
// failing the test unless it is a valid JSON array.
func chromeDecode(t *testing.T, d *Data) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := ExportChrome(&buf, d); err != nil {
		t.Fatalf("ExportChrome: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("Chrome output is not a JSON array: %v\n%s", err, buf.String())
	}
	return evs
}

// TestExportChromeEmpty: an empty recorder still produces a valid JSON array
// (the three process-name metadata events), so the artifact always loads.
func TestExportChromeEmpty(t *testing.T) {
	evs := chromeDecode(t, &Data{})
	if len(evs) != 3 {
		t.Fatalf("empty export has %d events, want the 3 metadata events", len(evs))
	}
	for _, ev := range evs {
		if ev["ph"] != "M" || ev["name"] != "process_name" {
			t.Fatalf("unexpected event in empty export: %v", ev)
		}
	}
}

// TestExportChromeSingleSpan: one completed statement round-trips into a
// whole-lifecycle "X" span plus one span per phase, with microsecond
// timestamps.
func TestExportChromeSingleSpan(t *testing.T) {
	tr := New(Config{}, 2)
	s := tr.StartStatement("a", "OLAP", "t.c0", 0.001)
	s.PhaseOpen("scan", 0.001)
	s.TaskStart(0, false, 0.002)
	s.PhaseClose(0.003)
	s.MarkDone(0.003)

	evs := chromeDecode(t, tr.Data())
	var spans []map[string]any
	for _, ev := range evs {
		if ev["ph"] == "X" {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("got %d X spans, want statement + phase: %v", len(spans), spans)
	}
	outer := spans[0]
	if outer["name"] != "t.c0" || outer["ts"].(float64) != 1000 || outer["dur"].(float64) != 2000 {
		t.Fatalf("statement span: %v", outer)
	}
	phase := spans[1]
	if phase["name"] != "scan" || phase["dur"].(float64) != 2000 {
		t.Fatalf("phase span: %v", phase)
	}
}

// TestExportChromeFull: statements (including shed and in-flight), decisions,
// and samples all encode; every event carries a known ph and the counter
// tracks carry per-socket args.
func TestExportChromeFull(t *testing.T) {
	tr := New(Config{}, 2)
	done := tr.StartStatement("a", "OLAP", "t.c0", 0)
	done.PhaseOpen("scan", 0.001)
	done.TaskStart(1, true, 0.002)
	done.PhaseClose(0.004)
	done.MarkDone(0.004)
	shed := tr.StartStatement("b", "interactive", "write", 0.001)
	shed.MarkShed(0.002, "admission")
	inflight := tr.StartStatement("c", "OLAP", "t.c1", 0.002)
	inflight.PhaseOpen("scan", 0.003) // never closed: still running at export

	tr.Decisions.Record(Decision{Time: 0.002, Source: "chaos", Kind: "socket-offline",
		Item: "socket 1", From: 1, To: 1, Cause: "scheduled"})

	c := metrics.New(2)
	tr.Sampler = NewSampler(0.01, c)
	tr.Sampler.QueueDepths = func() []int { return []int{2, 0} }
	c.AddMemoryTraffic(0, 0, 1<<30, 0, 0)
	tr.Sampler.Tick(0.01)

	evs := chromeDecode(t, tr.Data())
	count := map[string]int{}
	for _, ev := range evs {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X", "i", "C", "M":
			count[ph]++
		default:
			t.Fatalf("unknown ph %q in %v", ph, ev)
		}
	}
	// 3 statement spans + 2 phase spans; 1 instant; MC + completed + queue
	// depth counters; 3 metadata.
	if count["X"] != 5 || count["i"] != 1 || count["C"] != 3 || count["M"] != 3 {
		t.Fatalf("event mix %v, want X:5 i:1 C:3 M:3", count)
	}
	for _, ev := range evs {
		if ev["ph"] == "C" && ev["name"] == "MC GiB/s" {
			args := ev["args"].(map[string]any)
			if args["socket0"].(float64) != 100 {
				t.Fatalf("MC counter args: %v (1 GiB over 10ms = 100 GiB/s)", args)
			}
		}
	}
}

// TestWriteJSONL: every line is a self-describing JSON object, the dump
// leads with the schema-version meta line, and readJSONL round-trips the
// content back (records, timestamps, and the derived wait decomposition).
func TestWriteJSONL(t *testing.T) {
	tr := New(Config{}, 2)
	s := tr.StartStatement("a", "OLAP", "t.c0", 0)
	s.PhaseOpen("scan", 0.002)
	s.TaskStart(1, true, 0.004)
	s.PhaseClose(0.008)
	s.MarkDone(0.01)
	tr.Decisions.Record(Decision{Source: "placer", Kind: "replicate", Item: "c0", From: 0, To: 1})
	tr.Sampler = NewSampler(0.01, metrics.New(2))
	tr.Sampler.Tick(0.01)

	data := tr.Data()
	data.Meta.RunID = "round-trip"
	var buf bytes.Buffer
	if err := data.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want meta + 3 records:\n%s", len(lines), buf.String())
	}
	types := map[string]int{}
	for i, ln := range lines {
		var rec struct {
			Type string          `json:"type"`
			Rec  json.RawMessage `json:"rec"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if len(rec.Rec) == 0 {
			t.Fatalf("line %q has no rec payload", ln)
		}
		if i == 0 && rec.Type != "meta" {
			t.Fatalf("first line is %q, want the meta line", rec.Type)
		}
		types[rec.Type]++
	}
	if types["meta"] != 1 || types["statement"] != 1 || types["decision"] != 1 || types["sample"] != 1 {
		t.Fatalf("type mix %v", types)
	}

	got, err := readJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("readJSONL: %v", err)
	}
	if got.Meta != data.Meta {
		t.Fatalf("meta round-trip: got %+v want %+v", got.Meta, data.Meta)
	}
	if got.Meta.Schema != SchemaVersion || got.Meta.Sockets != 2 || got.Meta.RunID != "round-trip" {
		t.Fatalf("meta content: %+v", got.Meta)
	}
	if len(got.Statements) != 1 || len(got.Decisions) != 1 || len(got.Samples) != 1 {
		t.Fatalf("record counts: %d statements, %d decisions, %d samples",
			len(got.Statements), len(got.Decisions), len(got.Samples))
	}
	rs := got.Statements[0]
	if rs.Done != 0.01 || rs.Tenant != "a" || rs.Tasks() != 1 || rs.Stolen != 1 {
		t.Fatalf("statement round-trip: %+v", rs)
	}
	// The derived decomposition survives because the phases do.
	if rs.SchedulerWait() != s.SchedulerWait() || rs.ExecSeconds() != s.ExecSeconds() {
		t.Fatalf("wait decomposition drifted: sched %v vs %v, exec %v vs %v",
			rs.SchedulerWait(), s.SchedulerWait(), rs.ExecSeconds(), s.ExecSeconds())
	}
	if got.Decisions[0] != tr.Decisions.Events()[0] {
		t.Fatalf("decision round-trip: %+v", got.Decisions[0])
	}
}

// TestReadJSONLRejectsMismatch: dumps from another schema version, dumps not
// starting with a meta line, and empty dumps are all rejected with an error —
// triage tooling must never silently analyze a mismatched artifact.
func TestReadJSONLRejectsMismatch(t *testing.T) {
	cases := map[string]string{
		"wrong schema":   `{"type":"meta","rec":{"schema":1,"sockets":2}}`,
		"no meta first":  `{"type":"statement","rec":{"id":0}}`,
		"empty dump":     ``,
		"malformed line": `{"type":`,
	}
	for name, dump := range cases {
		if _, err := readJSONL(strings.NewReader(dump)); err == nil {
			t.Errorf("%s: readJSONL accepted %q", name, dump)
		}
	}
}

// readJSONL is the round-trip oracle of WriteJSONL: it parses a dump back
// into Data. The first line must be the meta line and its schema version
// must equal SchemaVersion, so a dump written by an incompatible build is
// rejected instead of misread. Unknown record types are skipped, so a newer
// writer that only *adds* record kinds stays readable after a version bump.
func readJSONL(r io.Reader) (*Data, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	d := &Data{}
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env struct {
			Type string          `json:"type"`
			Rec  json.RawMessage `json:"rec"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			return nil, fmt.Errorf("trace: bad JSONL line: %w", err)
		}
		if first {
			if env.Type != "meta" {
				return nil, fmt.Errorf("trace: dump does not start with a meta line (got %q)", env.Type)
			}
			if err := json.Unmarshal(env.Rec, &d.Meta); err != nil {
				return nil, fmt.Errorf("trace: bad meta line: %w", err)
			}
			if d.Meta.Schema != SchemaVersion {
				return nil, fmt.Errorf("trace: dump schema v%d, this build reads v%d", d.Meta.Schema, SchemaVersion)
			}
			first = false
			continue
		}
		switch env.Type {
		case "statement":
			var s Statement
			if err := json.Unmarshal(env.Rec, &s); err != nil {
				return nil, fmt.Errorf("trace: bad statement line: %w", err)
			}
			d.Statements = append(d.Statements, &s)
		case "decision":
			var dec Decision
			if err := json.Unmarshal(env.Rec, &dec); err != nil {
				return nil, fmt.Errorf("trace: bad decision line: %w", err)
			}
			d.Decisions = append(d.Decisions, dec)
		case "sample":
			var smp Sample
			if err := json.Unmarshal(env.Rec, &smp); err != nil {
				return nil, fmt.Errorf("trace: bad sample line: %w", err)
			}
			d.Samples = append(d.Samples, smp)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if first {
		return nil, fmt.Errorf("trace: empty dump (no meta line)")
	}
	return d, nil
}
