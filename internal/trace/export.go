package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Exporters: a JSON-lines dump (one self-describing record per line, easy to
// grep and post-process) and the Chrome trace-event format (a JSON array of
// events), which Perfetto and chrome://tracing open directly. Virtual
// seconds map to trace microseconds.

// tagged is the JSONL line envelope: a record type plus the record itself.
type tagged struct {
	Type string `json:"type"`
	Rec  any    `json:"rec"`
}

// WriteJSONL writes the recorder content as JSON lines: a leading meta line
// (schema version, run id, socket count, decision-ring drop counts), then one
// object per statement, decision, and sample, each tagged with a "type"
// field. The package tests parse the format back (their readJSONL oracle)
// and reject dumps whose schema version does not match this build's.
func (d *Data) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	m := d.Meta
	if m.Schema == 0 {
		m.Schema = SchemaVersion
	}
	if err := enc.Encode(tagged{Type: "meta", Rec: m}); err != nil {
		return err
	}
	for _, s := range d.Statements {
		if err := enc.Encode(tagged{Type: "statement", Rec: s}); err != nil {
			return err
		}
	}
	for _, dec := range d.Decisions {
		if err := enc.Encode(tagged{Type: "decision", Rec: dec}); err != nil {
			return err
		}
	}
	for _, smp := range d.Samples {
		if err := enc.Encode(tagged{Type: "sample", Rec: smp}); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Synthetic process IDs grouping the three views in a trace viewer.
const (
	chromePidStatements = 1
	chromePidDecisions  = 2
	chromePidSeries     = 3
)

// sec converts virtual seconds to trace microseconds.
func sec(t float64) float64 { return t * 1e6 }

// ExportChrome writes the recorder content in Chrome trace-event format:
// statements become per-statement rows of complete ("X") spans — one
// whole-lifecycle span plus one span per operator phase — decisions become
// global instant ("i") events, and the time-series becomes counter ("C")
// tracks for memory throughput, completions, and queue depth. The output is
// a plain JSON array, loadable by Perfetto or chrome://tracing.
func ExportChrome(w io.Writer, d *Data) error {
	evs := []chromeEvent{
		meta(chromePidStatements, "statements"),
		meta(chromePidDecisions, "decisions"),
		meta(chromePidSeries, "time-series"),
	}
	for _, s := range d.Statements {
		evs = append(evs, statementEvents(s)...)
	}
	for _, dec := range d.Decisions {
		evs = append(evs, chromeEvent{
			Name: dec.Source + ":" + dec.Kind, Cat: "decision", Ph: "i",
			Ts: sec(dec.Time), Pid: chromePidDecisions, S: "g",
			Args: map[string]any{"item": dec.Item, "from": dec.From, "to": dec.To, "cause": dec.Cause},
		})
	}
	for _, smp := range d.Samples {
		mc := map[string]any{}
		for i, v := range smp.MCGiBs() {
			mc[fmt.Sprintf("socket%d", i)] = v
		}
		evs = append(evs,
			chromeEvent{Name: "MC GiB/s", Ph: "C", Ts: sec(smp.Time), Pid: chromePidSeries, Args: mc},
			chromeEvent{Name: "completed", Ph: "C", Ts: sec(smp.Time), Pid: chromePidSeries,
				Args: map[string]any{"done": smp.Delta.QueriesDone}},
		)
		if len(smp.QueueDepths) > 0 {
			qd := map[string]any{}
			for i, v := range smp.QueueDepths {
				qd[fmt.Sprintf("socket%d", i)] = v
			}
			evs = append(evs, chromeEvent{Name: "queue depth", Ph: "C", Ts: sec(smp.Time),
				Pid: chromePidSeries, Args: qd})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// meta emits a process_name metadata event so viewers label the row groups.
func meta(pid int, name string) chromeEvent {
	return chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}}
}

// statementEvents renders one statement as spans on its own thread row.
func statementEvents(s *Statement) []chromeEvent {
	end := s.Done
	if s.Shed {
		end = s.ShedAt
	}
	if end < 0 {
		// In flight at export time: close the span at its last known event.
		end = s.Admitted
		for _, p := range s.Phases {
			if p.End > end {
				end = p.End
			}
		}
	}
	evs := []chromeEvent{{
		Name: s.Item, Cat: "statement", Ph: "X",
		Ts: sec(s.Submitted), Dur: sec(end - s.Submitted),
		Pid: chromePidStatements, Tid: s.ID,
		Args: map[string]any{
			"tenant": s.Tenant, "class": s.Class, "shed": s.Shed,
			"queue_wait": s.QueueWait(), "sched_wait": s.SchedulerWait(),
			"join_wait": s.JoinWait, "attached": s.Attached,
			"stolen": s.Stolen, "tasks": s.Tasks(),
		},
	}}
	for _, p := range s.Phases {
		pend := p.End
		if pend < 0 {
			pend = end
		}
		evs = append(evs, chromeEvent{
			Name: p.Name, Cat: "phase", Ph: "X",
			Ts: sec(p.Start), Dur: sec(pend - p.Start),
			Pid: chromePidStatements, Tid: s.ID,
			Args: map[string]any{"tasks": p.Tasks, "first_task": p.FirstTask},
		})
	}
	return evs
}
