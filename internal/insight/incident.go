package insight

import (
	"fmt"
	"math"
	"sort"

	"numacs/internal/trace"
)

// Incident directions.
const (
	// Dip marks a series falling below its baseline; Spike a rise above it.
	Dip   = "dip"
	Spike = "spike"
)

// Incident is one detected time-series anomaly: which series moved, which
// way, over which windows, by how much against the detector's expectation,
// and which control-plane decisions fell inside its (slack-padded) interval
// — the suspects a human (or an SLO verdict) starts from. An incident with
// no candidate decisions is still reported, flagged Unexplained.
type Incident struct {
	// Series names the anomalous series ("throughput", "mc-total",
	// "mc-socket1", "queue-depth", "tenant:a").
	Series string `json:"series"`
	// Direction is Dip or Spike, relative to the EWMA baseline.
	Direction string `json:"direction"`
	// FirstWindow and LastWindow are the 0-based sample indexes the anomaly
	// spans (consecutive same-direction windows merge into one incident);
	// Start and End bound it in virtual seconds.
	FirstWindow int     `json:"first_window"`
	LastWindow  int     `json:"last_window"`
	Start       float64 `json:"start"`
	End         float64 `json:"end"`
	// Baseline is the detector's expectation (EWMA mean) at onset; Value the
	// span's most deviant observation; Magnitude the relative change
	// Value/Baseline - 1 (negative for dips); Z the peak robust z-score.
	Baseline  float64 `json:"baseline"`
	Value     float64 `json:"value"`
	Magnitude float64 `json:"magnitude"`
	Z         float64 `json:"z"`
	// SuspectDecisions are the decision-log entries inside the incident's
	// correlation interval (onset minus slack through the last anomalous
	// window), nearest-to-onset first retained under the cap, chronological.
	SuspectDecisions []trace.Decision `json:"suspect_decisions,omitempty"`
	// Unexplained marks an incident with zero candidate decisions.
	Unexplained bool `json:"unexplained,omitempty"`
}

// String renders the incident one-line: series, direction, span, size.
func (in Incident) String() string {
	return fmt.Sprintf("%s %s w%d-w%d: %.3g -> %.3g (%+.0f%%, z=%.1f)",
		in.Series, in.Direction, in.FirstWindow+1, in.LastWindow+1,
		in.Baseline, in.Value, in.Magnitude*100, in.Z)
}

// series is one extracted time-series with its per-unit noise floor: the
// absolute deviation below which the detector never alarms regardless of how
// quiet the series has been (protects near-zero baselines, where a relative
// floor vanishes).
type series struct {
	name     string
	vals     []float64
	absFloor float64
}

// extractSeries pulls the analyzable series out of the samples. Counter
// deltas become rates (per second) so partial flush windows compare cleanly
// against full ones; queue depth stays an instantaneous level.
func extractSeries(samples []trace.Sample) []series {
	if len(samples) == 0 {
		return nil
	}
	n := len(samples)
	rate := func(v float64, smp trace.Sample) float64 {
		if smp.Window <= 0 {
			return 0
		}
		return v / smp.Window
	}
	tp := series{name: "throughput", vals: make([]float64, n), absFloor: 1}
	mc := series{name: "mc-total", vals: make([]float64, n), absFloor: 0.5}
	// Queue depth is an instantaneous level sampled at window boundaries —
	// with N closed-loop clients it legitimately swings anywhere in [0, N]
	// between samples, so its floor is set well above that jitter band and
	// only a sustained queue explosion (admission backlog in the hundreds)
	// clears it.
	qd := series{name: "queue-depth", vals: make([]float64, n), absFloor: 24}
	hasQD := false
	sockets := len(samples[0].Delta.MCBytes)
	perSock := make([]series, sockets)
	for i := range perSock {
		perSock[i] = series{name: fmt.Sprintf("mc-socket%d", i), vals: make([]float64, n), absFloor: 0.5}
	}
	tenants := map[string]*series{}
	var tenantOrder []string
	for w, smp := range samples {
		tp.vals[w] = rate(float64(smp.Delta.QueriesDone), smp)
		mc.vals[w] = smp.TotalMCGiBs()
		for i, g := range smp.MCGiBs() {
			if i < sockets {
				perSock[i].vals[w] = g
			}
		}
		if len(smp.QueueDepths) > 0 {
			hasQD = true
			d := 0
			for _, q := range smp.QueueDepths {
				d += q
			}
			qd.vals[w] = float64(d)
		}
		for _, tc := range smp.Tenants {
			s, ok := tenants[tc.Name]
			if !ok {
				s = &series{name: "tenant:" + tc.Name, vals: make([]float64, n), absFloor: 1}
				tenants[tc.Name] = s
				tenantOrder = append(tenantOrder, tc.Name)
			}
			s.vals[w] = rate(float64(tc.Completed), smp)
		}
	}
	out := []series{tp, mc}
	out = append(out, perSock...)
	if hasQD {
		out = append(out, qd)
	}
	sort.Strings(tenantOrder)
	for _, name := range tenantOrder {
		out = append(out, *tenants[name])
	}
	return out
}

// anomaly is one window flagged by the detector.
type anomaly struct {
	win           int
	up            bool
	z             float64
	baseline, val float64
}

// detectSeries runs the robust change-point detector over one series. The
// EWMA mean is the expectation and an exponentially weighted mean absolute
// deviation (scaled by 1.4826, the MAD-to-sigma factor for normal noise) is
// the scale; both are primed on the first primeWindows windows. Quiet
// windows update mean and scale smoothly. An anomalous window re-baselines
// the mean to the observed level WITHOUT feeding the huge residual into the
// scale: a sustained fault therefore alarms once at its onset, tracks the
// faulted level quietly, and — because the scale still reflects healthy
// noise — alarms again when the series snaps back (the recovery incident).
func detectSeries(s series) []anomaly {
	if len(s.vals) <= primeWindows {
		return nil
	}
	mean, dev := 0.0, 0.0
	for _, v := range s.vals[:primeWindows] {
		mean += v
	}
	mean /= primeWindows
	for _, v := range s.vals[:primeWindows] {
		dev += math.Abs(v - mean)
	}
	dev /= primeWindows

	var out []anomaly
	for w := primeWindows; w < len(s.vals); w++ {
		v := s.vals[w]
		r := v - mean
		scale := 1.4826 * dev
		if f := minRelScale * math.Abs(mean); f > scale {
			scale = f
		}
		if s.absFloor > scale {
			scale = s.absFloor
		}
		if z := r / scale; math.Abs(z) >= zThreshold {
			out = append(out, anomaly{win: w, up: z > 0, z: z, baseline: mean, val: v})
			mean = v
		} else {
			mean += alpha * r
			dev += alpha * (math.Abs(r) - dev)
		}
	}
	return out
}

// detectIncidents runs the detector over every extracted series, merges
// consecutive same-direction anomalous windows into incidents, and
// correlates each incident with the decision log.
func detectIncidents(d *trace.Data) []Incident {
	samples := d.Samples
	var out []Incident
	for _, s := range extractSeries(samples) {
		anoms := detectSeries(s)
		for i := 0; i < len(anoms); {
			j := i
			peak := anoms[i]
			for j+1 < len(anoms) && anoms[j+1].win == anoms[j].win+1 && anoms[j+1].up == peak.up {
				j++
				if math.Abs(anoms[j].z) > math.Abs(peak.z) {
					peak = anoms[j]
				}
			}
			first, last := anoms[i].win, anoms[j].win
			in := Incident{
				Series:      s.name,
				Direction:   Dip,
				FirstWindow: first,
				LastWindow:  last,
				Start:       samples[first].Time - samples[first].Window,
				End:         samples[last].Time,
				Baseline:    anoms[i].baseline,
				Value:       peak.val,
				Z:           peak.z,
			}
			if peak.up {
				in.Direction = Spike
			}
			if in.Baseline != 0 {
				in.Magnitude = in.Value/in.Baseline - 1
			}
			correlate(&in, d.Decisions, samples[first].Window)
			out = append(out, in)
			i = j + 1
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].FirstWindow != out[j].FirstWindow {
			return out[i].FirstWindow < out[j].FirstWindow
		}
		return out[i].Series < out[j].Series
	})
	return out
}

// correlate fills the incident's suspect set: every decision inside
// [Start - slackWindows*window, End]. When more than maxSuspects qualify the
// ones nearest the incident onset are kept (the fault that opened the
// anomaly sits at its start; an AIMD controller chattering later in the span
// is the droppable tail), then re-sorted chronologically.
func correlate(in *Incident, decisions []trace.Decision, window float64) {
	lo := in.Start - slackWindows*window
	var cand []trace.Decision
	for _, d := range decisions {
		if d.Time >= lo && d.Time <= in.End {
			cand = append(cand, d)
		}
	}
	if len(cand) == 0 {
		in.Unexplained = true
		return
	}
	if len(cand) > maxSuspects {
		sort.SliceStable(cand, func(i, j int) bool {
			return math.Abs(cand[i].Time-in.Start) < math.Abs(cand[j].Time-in.Start)
		})
		cand = cand[:maxSuspects]
	}
	sort.SliceStable(cand, func(i, j int) bool { return cand[i].Time < cand[j].Time })
	in.SuspectDecisions = cand
}
