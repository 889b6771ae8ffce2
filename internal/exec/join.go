package exec

import (
	"numacs/internal/colstore"
	"numacs/internal/memsim"
	"numacs/internal/psm"
	"numacs/internal/sched"
	"numacs/internal/sim"
)

// Join cost defaults.
const (
	DefaultBuildCyclesPerRow = 25
	DefaultProbeCyclesPerRow = 18
	// DefaultHTMissRate: hash tables are bigger and colder than dictionaries.
	DefaultHTMissRate = 0.5
	// joinStreamCyclesPerByte is the compute cost of streaming the join
	// columns' IV bytes.
	joinStreamCyclesPerByte = 0.3
	// htBytesPerSlot is the open-addressing slot footprint (key + row + used).
	htBytesPerSlot = 16
)

// JoinOp is the Section 8 hash-join operator: a parallel build phase whose
// tasks are bound to the build data's sockets and write the operator-internal
// hash table, a barrier, then a parallel probe phase whose tasks are bound to
// the probe data's sockets and randomly access the hash table wherever it was
// placed. It contributes two pipeline phases (BuildOp and ProbeOp) and is a
// RegionSource: its probe-side match regions feed a downstream AggregateOp.
type JoinOp struct {
	Build *colstore.Column
	Probe *colstore.Column
	// HTSockets lists the sockets holding hash-table partitions: one socket
	// for a centralized table, several for a partitioned table co-located
	// with the build partitions. When empty, the table is placed on the
	// build column's majority socket.
	HTSockets []int
	// HitsPerProbeRow is the analytic join cardinality per probe row against
	// the unfiltered build side.
	HitsPerProbeRow float64
	// Alloc allocates the simulated hash-table pages.
	Alloc *memsim.Allocator

	// BuildSource optionally filters the build side: only the source's
	// qualifying matches are inserted into the hash table, shrinking both the
	// build work and the effective probe cardinality (the scan->join->
	// aggregate composition). Nil builds from every row.
	BuildSource RegionSource

	// Cost knobs (zero values take the defaults above).
	BuildCyclesPerRow float64
	ProbeCyclesPerRow float64
	HTMissRate        float64

	htRange   memsim.Range
	buildFrac float64
	regions   []Region
}

// Regions implements RegionSource: the per-partition probe-side match counts,
// available once the probe phase has opened.
func (j *JoinOp) Regions() []Region { return j.regions }

// BuildOp returns the build-phase operator.
func (j *JoinOp) BuildOp() Operator { return (*joinBuild)(j) }

// ProbeOp returns the probe-phase operator; it must be placed after BuildOp
// in the pipeline.
func (j *JoinOp) ProbeOp() Operator { return (*joinProbe)(j) }

func (j *JoinOp) missRate() float64 {
	if j.HTMissRate == 0 {
		return DefaultHTMissRate
	}
	return j.HTMissRate
}

// htWeights returns the access distribution over the hash-table sockets.
func (j *JoinOp) htWeights(env *Env) []float64 {
	w := make([]float64, env.Machine.Sockets)
	for _, s := range j.HTSockets {
		w[s] += 1 / float64(len(j.HTSockets))
	}
	return w
}

// fanOut plans one join phase over the column's scheduling partitions: each
// task streams its share of the column and performs hash-table accesses
// (inserts during build, probes afterwards).
func (j *JoinOp) fanOut(p *Pipeline, col *colstore.Column, cyclesPerRow, accessesPerRow, byteFrac float64) []Task {
	env := p.Env
	parts := Partitions(col)
	per := TasksPerPartition(p.Hint(), len(parts))
	weights := j.htWeights(env)
	var out []Task
	for _, pr := range parts {
		for _, span := range SplitRows(pr.From, pr.To, per) {
			from, to := span[0], span[1]
			out = append(out, Task{Socket: pr.Socket, Run: func(w *sched.Worker, done func()) {
				j.runTask(env, w, col, from, to, cyclesPerRow, accessesPerRow, byteFrac, weights, done)
			}})
		}
	}
	return out
}

// runTask streams the rows' IV bytes, then performs the hash-table random
// accesses.
func (j *JoinOp) runTask(env *Env, w *sched.Worker, col *colstore.Column, from, to int,
	cyclesPerRow, accessesPerRow, byteFrac float64, htWeights []float64, onDone func()) {

	src := w.Socket()
	// A replicated column streams from the replica with the most MC
	// headroom, matching the per-replica task affinities Partitions derives
	// for replicated columns.
	var buf [psm.MaxSockets]int64
	perSocket, _ := ivSocketBytes(env, col, src, from, to, buf[:])
	penalty := 1.0
	if !w.Bound {
		penalty = env.Costs.UnboundStreamPenalty
	}

	// Phase A: stream the column slice (scaled down when a build filter means
	// only a fraction of the rows is gathered).
	var flowBuf [4]*sim.Flow
	flows := flowBuf[:0]
	for dst, b := range perSocket {
		fb := float64(b) * byteFrac
		if fb == 0 {
			continue
		}
		dst := dst
		demands, lt := env.HW.StreamDemands(src, dst, w.CoreRes, joinStreamCyclesPerByte)
		flows = append(flows, &sim.Flow{
			Remaining: fb,
			RateCap:   env.Machine.StreamRate(src, dst) * penalty,
			Demands:   demands,
			OnAdvance: func(p float64) {
				env.Counters.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
			},
		})
	}
	// Phase B: hash-table accesses.
	accesses := float64(to-from) * accessesPerRow
	demands, rateCap, _ := env.HW.RandomDemands(src, htWeights, w.CoreRes,
		cyclesPerRow, 0, j.missRate())
	if !w.Bound {
		rateCap *= env.Costs.UnboundStreamPenalty
	}
	miss := j.missRate()
	flows = append(flows, &sim.Flow{
		Remaining: accesses,
		RateCap:   rateCap,
		Demands:   demands,
		OnAdvance: func(p float64) {
			b := p * 64 * miss
			for dst, frac := range htWeights {
				if frac > 0 {
					env.Counters.AddMemoryTraffic(src, dst, b*frac, 0, 0)
				}
			}
			env.Counters.AddCompute(src, p*cyclesPerRow, 0)
		},
	})
	RunFlows(env.Sim, flows, onDone)
}

// joinBuild is the build phase of a JoinOp.
type joinBuild JoinOp

func (b *joinBuild) Open(p *Pipeline) []Task {
	j := (*JoinOp)(b)
	if len(j.HTSockets) == 0 {
		j.HTSockets = []int{j.Build.IVPSM.MajoritySocket()}
	}
	j.buildFrac = 1
	if j.BuildSource != nil {
		matches := 0
		for _, r := range j.BuildSource.Regions() {
			matches += r.Matches
		}
		j.buildFrac = float64(matches) / float64(j.Build.Rows)
		if j.buildFrac > 1 {
			j.buildFrac = 1
		}
	}
	// Allocate the hash table across its sockets (open addressing at 2x the
	// inserted rows).
	htBytes := int64(float64(j.Build.Rows)*j.buildFrac) * 2 * htBytesPerSlot
	if htBytes < memsim.PageSize {
		htBytes = memsim.PageSize
	}
	if len(j.HTSockets) == 1 {
		j.htRange = j.Alloc.Alloc(htBytes, memsim.OnSocket(j.HTSockets[0]))
	} else {
		j.htRange = j.Alloc.Alloc(htBytes, memsim.Interleaved{Sockets: j.HTSockets})
	}
	cycles := j.BuildCyclesPerRow
	if cycles == 0 {
		cycles = DefaultBuildCyclesPerRow
	}
	return j.fanOut(p, j.Build, cycles, j.buildFrac, j.buildFrac)
}

func (b *joinBuild) Close(*Pipeline) {}

// joinProbe is the probe phase of a JoinOp.
type joinProbe JoinOp

func (pr *joinProbe) Open(p *Pipeline) []Task {
	j := (*JoinOp)(pr)
	effHits := j.HitsPerProbeRow * j.buildFrac
	accesses := effHits
	if accesses < 1 {
		accesses = 1
	}
	// Probe-side match regions for downstream aggregation.
	j.regions = j.regions[:0]
	for _, part := range Partitions(j.Probe) {
		j.regions = append(j.regions, Region{
			Col:     j.Probe,
			Socket:  part.Socket,
			Matches: int(float64(part.To-part.From)*effHits + 0.5),
		})
	}
	cycles := j.ProbeCyclesPerRow
	if cycles == 0 {
		cycles = DefaultProbeCyclesPerRow
	}
	return j.fanOut(p, j.Probe, cycles, accesses, 1)
}

// Close releases the operator-internal hash table at the probe barrier.
func (pr *joinProbe) Close(*Pipeline) {
	j := (*JoinOp)(pr)
	j.Alloc.Free(j.htRange)
}
