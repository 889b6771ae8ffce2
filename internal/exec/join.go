package exec

import (
	"numacs/internal/colstore"
	"numacs/internal/memsim"
	"numacs/internal/psm"
	"numacs/internal/sched"
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
	// recs and tasks are the running phase's, refilled by the next.
	recs  []joinTask
	tasks []Task
}

// joinTask is the record of one join task: it streams rows [from,to) of
// col, then performs their hash-table accesses (inserts during build, probes
// afterwards).
type joinTask struct {
	j                                      *JoinOp
	env                                    *Env
	col                                    *colstore.Column
	from, to                               int
	cyclesPerRow, accessesPerRow, byteFrac float64
	htWeights                              []float64
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

// fanOut plans one join phase with the find phase's fan-out (PlanSpans,
// replica slices split evenly) into the operator's task records.
func (j *JoinOp) fanOut(p *Pipeline, col *colstore.Column, cyclesPerRow, accessesPerRow, byteFrac float64) []Task {
	var spanBuf [16]KernelSpan
	spans := PlanSpans(spanBuf[:0], col, nil, p.Hint())
	weights := j.htWeights(p.Env)
	j.recs, j.tasks = emptied(j.recs, len(spans)), j.tasks[:0]
	for _, sp := range spans {
		j.recs = append(j.recs, joinTask{j: j, env: p.Env, col: col, from: sp.From, to: sp.To,
			cyclesPerRow: cyclesPerRow, accessesPerRow: accessesPerRow, byteFrac: byteFrac, htWeights: weights})
		j.tasks = append(j.tasks, Task{Socket: sp.Socket, Run: &j.recs[len(j.recs)-1]})
	}
	return j.tasks
}

// Run implements sched.Runner: it streams the rows' IV bytes, then performs
// the hash-table random accesses.
func (t *joinTask) Run(w *sched.Worker, done func()) {
	env := t.env
	// A replicated column streams from the replica with the most MC
	// headroom, matching the per-replica task affinities Partitions derives
	// for replicated columns.
	var buf [psm.MaxSockets]int64
	perSocket, _ := ivSocketBytes(env, t.col, w.Socket(), t.from, t.to, buf[:])

	// Phase A: stream the column slice (scaled down when a build filter means
	// only a fraction of the rows is gathered).
	var head *flowRec
	link := &head // where the chain's next record goes
	for dst, b := range perSocket {
		fb := float64(b) * t.byteFrac
		if fb == 0 {
			continue
		}
		r := env.streamFlow(joinStreamFlow, w, dst, joinStreamCyclesPerByte, fb)
		*link, link = r, &r.next
	}
	// Phase B: hash-table accesses.
	r := env.newFlow(joinHTFlow, w.Socket(), -1)
	r.weights = append(r.weights, t.htWeights...)
	r.randomAccess(w, float64(t.to-t.from)*t.accessesPerRow, t.cyclesPerRow, 0, t.j.missRate())
	r.per = t.cyclesPerRow
	*link = r
	env.runChain(head, done)
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
