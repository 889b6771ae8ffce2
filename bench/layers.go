package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"

	"numacs/internal/core"
	"numacs/internal/join"
	"numacs/internal/plan"
	"numacs/internal/sim"
)

// maxShapes bounds how many statements of the measured window the planning
// replay re-plans.
const maxShapes = 4096

// tracer records the per-layer timings of a traced run, all from the
// benchmark's side of each layer boundary: every Sim.Step call, the time
// between probe actors registered after each layer's actor, and every call
// into core.Engine.Submit and join.ExecuteStar. It records only while on.
type tracer struct {
	on   bool
	base time.Time
	last time.Duration // step start or previous probe, since base

	spanNames   []string
	spans       []time.Duration // per probe: time since the previous probe
	flow, total time.Duration   // after the last probe; whole steps

	steps       []float64 // µs per step
	activeFlows float64   // summed over steps
	submits     []float64 // µs per Submit
	stars       []float64 // µs per ExecuteStar
	shapes      []shape
}

// shape is one statement kept for the planning replay: a star join when star
// is set, else a plain statement.
type shape struct {
	stmt plan.Statement
	star *join.StarSpec
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) since() time.Duration { return time.Since(t.base) }

// probe returns a no-op actor that charges the time since the previous probe
// to span.
func (t *tracer) probe(span string) sim.Actor {
	i := len(t.spans)
	t.spanNames = append(t.spanNames, span)
	t.spans = append(t.spans, 0)
	return sim.ActorFunc(func(float64) {
		if !t.on {
			return
		}
		now := t.since()
		t.spans[i] += now - t.last
		t.last = now
	})
}

// step runs one timed simulator step.
func (t *tracer) step(e *core.Engine) {
	start := t.since()
	t.last = start
	e.Sim.Step()
	end := t.since()
	t.flow += end - t.last
	t.total += end - start
	t.steps = append(t.steps, micros(end-start))
	t.activeFlows += float64(e.Sim.ActiveFlows())
}

// window steps the engine to end in chunks equal slices of simulated time,
// tracing off in the even ones and on in the odd ones. Each traced chunk
// records timings and a CPU profile of its own. The host time per simulated
// second of the traced chunks over that of the untraced ones is the tracing
// overhead; alternating within one run cancels the host's drift, which
// comparing two runs would not.
func (t *tracer) window(e *core.Engine, end float64, chunks int) (profiles [][]byte, overhead float64, err error) {
	start := e.Sim.Now()
	var wall, simulated [2]float64 // untraced, traced
	for k := 0; k < chunks; k++ {
		stop := start + (end-start)*float64(k+1)/float64(chunks)
		if k == chunks-1 {
			stop = end
		}
		on := k % 2
		t.on = on == 1
		var prof bytes.Buffer
		if t.on {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, 0, fmt.Errorf("start cpu profile: %w", err)
			}
		}
		from, t0 := e.Sim.Now(), time.Now()
		for e.Sim.Now() < stop {
			if t.on {
				t.step(e)
			} else {
				e.Sim.Step()
			}
		}
		wall[on] += time.Since(t0).Seconds()
		simulated[on] += e.Sim.Now() - from
		if t.on {
			pprof.StopCPUProfile()
			profiles = append(profiles, prof.Bytes())
		}
	}
	t.on = false
	return profiles, (wall[1] / simulated[1]) / (wall[0] / simulated[0]), nil
}

// reset drops everything recorded before the measured window.
func (t *tracer) reset() {
	for i := range t.spans {
		t.spans[i] = 0
	}
	t.flow, t.total, t.activeFlows = 0, 0, 0
	t.steps, t.submits, t.stars, t.shapes = t.steps[:0], t.submits[:0], t.stars[:0], nil
}

// replayPlanning re-plans the kept statements the way the engine plans them
// (plain statements without statistics, stars with statistics collected on
// every call) and returns the host µs per statement.
func (t *tracer) replayPlanning(e *core.Engine) float64 {
	if len(t.shapes) == 0 {
		return 0
	}
	const rounds = 5
	deps := plan.Deps{Alloc: e.Placer.Alloc}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range t.shapes {
			if s.star != nil {
				plan.Optimize(s.star.Plan(), plan.Collect(s.star.Dim, s.star.Fact), &e.Costs).Lower(deps)
			} else {
				plan.Optimize(plan.BuildQuery(s.stmt), nil, &e.Costs).Lower(deps)
			}
		}
	}
	return micros(time.Since(t0)) / float64(rounds*len(t.shapes))
}

// spanShares returns each probe span's and the flow phase's share of step
// time.
func (t *tracer) spanShares() map[string]float64 {
	out := map[string]float64{}
	if t.total <= 0 {
		return out
	}
	for i, name := range t.spanNames {
		out[name] = float64(t.spans[i]) / float64(t.total)
	}
	out["sim.flow_share"] = float64(t.flow) / float64(t.total)
	return out
}

// internalPrefix is the import-path prefix of the system's layers.
const internalPrefix = "numacs/internal/"

// attribute charges one CPU sample to a layer: the package of the innermost
// numacs/internal frame of its stack (frames leaf first), else "gc" for the
// garbage collector's background workers, else "other".
func attribute(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.bgsweep") {
			return "gc"
		}
	}
	return "other"
}

// cpuShares decodes gzipped pprof CPU profiles and returns each cpu.<layer>
// metric's share of their samples. Layers without a metric of their own are
// charged to cpu.other.
func cpuShares(profiles [][]byte) (map[string]float64, error) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	out := map[string]float64{}
	total := 0.0
	for _, raw := range profiles {
		stacks, err := profileStacks(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range stacks {
			name := "cpu." + attribute(s.frames)
			if !known[name] {
				name = "cpu.other"
			}
			out[name] += float64(s.count)
			total += float64(s.count)
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out, nil
}

// stack is one profile sample: its function names, leaf first (inlined
// frames innermost first), and its sample count.
type stack struct {
	frames []string
	count  int64
}

// profileStacks decodes the protobuf profile format runtime/pprof writes
// (profile.proto: samples, locations, functions and the string table),
// reading only the fields attribution needs.
func profileStacks(raw []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = pbVarints(s.locs, v, b)
				case 2:
					s.values, err = pbVarints(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: 1}
		if len(s.values) > 0 {
			st.count = int64(s.values[0])
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// pbFields calls fn for every field of one protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints appends a repeated varint field's values: one unpacked value v,
// or every value of a packed run b.
func pbVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
