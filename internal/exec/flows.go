package exec

import (
	"numacs/internal/colstore"
	"numacs/internal/hw"
	"numacs/internal/psm"
	"numacs/internal/sched"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

// flowKind selects what a flowRec charges to the counters as it advances.
type flowKind uint8

const (
	scanFlow       flowKind = iota // IV stream of a find task or cohort pass
	deltaFlow                      // delta-fragment stream of a find task or cohort pass
	indexFlow                      // index lookups of a find task
	matFlow                        // dictionary probes of an output task
	aggFlow                        // payload stream of an aggregation task
	joinStreamFlow                 // column stream of a join task
	joinHTFlow                     // hash-table accesses of a join task
	wrapFlow                       // re-stream of a cohort's wrap pass
)

// flowRec is one flow exec starts, with the state its accounting reads.
// Records are recycled through their Env's free list: OnAdvance and OnDone
// are bound once, when a record is made, and each start reuses its weight
// and demand (Flow.Demands) buffers.
//
// A record returns to the free list only inside its own OnDone, after it has
// read next and then. This is sound because nothing outside the simulator
// keeps a record's *sim.Flow (callers hold records only in locals while they
// link a chain) and the simulator has no abort path; a flow that never
// completed would simply be dropped for the garbage collector, never reused.
type flowRec struct {
	sim.Flow
	env  *Env
	kind flowKind
	src  int // socket of the executing worker
	dst  int // socket serving the bytes of a stream
	lt   hw.LinkTraffic
	// item is the column the traffic is attributed to, attr its serving
	// socket for a random-access flow (-1 when the accesses spread).
	item *colstore.Column
	attr int
	// per is the kind's per-unit cost that the record fixes at start: the
	// aggregation's cycles per byte or the join's cycles per row.
	per  float64
	miss float64 // last-level-cache miss rate of a random-access flow
	// n is the member predicates a find stream evaluates (1 for a private
	// scan); pass, when set, is the cohort pass whose progress it reports.
	n    int
	pass *SharedScanOp

	weights []float64 // per-socket access fractions of a random-access flow

	// next is the record that starts when this one completes; then fires
	// after the last record of a chain. On the free list, next links it.
	next *flowRec
	then func()
}

// newFlow takes a record from the free list, or makes one, and resets it
// for a flow of the given kind run by a worker on src against socket dst.
func (env *Env) newFlow(kind flowKind, src, dst int) *flowRec {
	r := env.freeFlows
	if r == nil {
		r = &flowRec{}
		r.OnAdvance = r.advance
		r.OnDone = r.done
	} else {
		env.freeFlows = r.next
	}
	*r = flowRec{
		Flow: sim.Flow{Demands: r.Demands[:0], OnAdvance: r.OnAdvance, OnDone: r.OnDone},
		env:  env, kind: kind, src: src, dst: dst, weights: r.weights[:0],
	}
	return r
}

// streamFlow takes a record for a stream of bytes that worker w reads from
// memory on socket dst, burning cyclesPerByte on its core. The stream runs
// at most at one hardware thread's rate, slowed by the unbound penalty when
// w is not bound to its socket.
func (env *Env) streamFlow(kind flowKind, w *sched.Worker, dst int, cyclesPerByte, bytes float64) *flowRec {
	src := w.Socket()
	r := env.newFlow(kind, src, dst)
	r.Demands, r.lt = env.HW.StreamDemandsInto(r.Demands, src, dst, w.CoreRes, cyclesPerByte)
	penalty := 1.0
	if !w.Bound {
		penalty = env.Costs.UnboundStreamPenalty
	}
	r.Remaining = bytes
	r.RateCap = env.Machine.StreamRate(src, dst) * penalty
	return r
}

// randomFlow takes a record for accesses dependent random accesses by
// worker w into a component of col laid out by p: the replica BestReplica
// picks for a replicated column, else the component's own pages.
func (env *Env) randomFlow(kind flowKind, w *sched.Worker, col *colstore.Column, p *psm.PSM,
	accesses, cyclesPerAccess, extraLocalBytes, missRate float64) *flowRec {

	src := w.Socket()
	r := env.newFlow(kind, src, -1)
	if col.Replicated() {
		r.weights = socketWeights(r.weights, env.Machine.Sockets)
		r.weights[BestReplica(env, col, src)] = 1
	} else {
		r.weights = ComponentWeights(r.weights, env.Machine.Sockets, p)
	}
	r.attr = singleSocket(r.weights)
	r.item = col
	r.randomAccess(w, accesses, cyclesPerAccess, extraLocalBytes, missRate)
	return r
}

// randomAccess sets the demands and rate cap of accesses dependent random
// accesses by worker w, spread over the sockets as r.weights says. The
// latency-bound rate is slowed by the unbound penalty when w is not bound
// to its socket.
func (r *flowRec) randomAccess(w *sched.Worker, accesses, cyclesPerAccess, extraLocalBytes, missRate float64) {
	env := r.env
	r.Demands, r.RateCap, r.lt = env.HW.RandomDemandsInto(r.Demands, r.src, r.weights, w.CoreRes,
		cyclesPerAccess, extraLocalBytes, missRate)
	if !w.Bound {
		r.RateCap *= env.Costs.UnboundStreamPenalty
	}
	r.Remaining = accesses
	r.miss = missRate
}

// writeOutput adds the task's output writes, perByte bytes per unit of
// progress, on the executing worker's memory controller.
func (r *flowRec) writeOutput(perByte float64) {
	if perByte > 0 {
		r.Demands = append(r.Demands, sim.Demand{Resource: r.env.HW.MC[r.src], Weight: perByte})
	}
}

// runChain starts the records linked through next from head, one after
// another, and fires then when the last completes — at once for an empty
// chain.
func (env *Env) runChain(head *flowRec, then func()) {
	if head == nil {
		then()
		return
	}
	tail := head
	for tail.next != nil {
		tail = tail.next
	}
	tail.then = then
	env.Sim.StartFlow(&head.Flow)
}

// done is every record's OnDone: it recycles the record, then starts the
// next record of its chain or fires the chain's then.
func (r *flowRec) done() {
	env, next, then := r.env, r.next, r.then
	r.pass, r.then = nil, nil
	r.next = env.freeFlows
	env.freeFlows = r
	if next != nil {
		env.Sim.StartFlow(&next.Flow)
		return
	}
	then()
}

// advance is every record's OnAdvance: it charges progress p to the
// counters and to the record's data item as the record's kind prescribes.
func (r *flowRec) advance(p float64) {
	env, c, src, dst, lt := r.env, r.env.Counters, r.src, r.dst, r.lt
	switch r.kind {
	case scanFlow:
		if r.pass != nil {
			r.pass.bytesDone += p
		}
		c.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
		c.AddCompute(src, p*env.Costs.SharedScanInstrPerByte(r.n), 0)
		// One logical attribution per member; the hook is linear, so
		// one n-scaled call equals n unit calls.
		env.addItem(r.item, dst, Traffic{Bytes: p * float64(r.n), IVBytes: p * float64(r.n)})
	case deltaFlow:
		c.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
		c.AddCompute(src, p*env.Costs.SharedScanInstrPerByte(r.n), 0)
		env.addItem(r.item, dst, Traffic{Bytes: p * float64(r.n), DeltaBytes: p * float64(r.n)})
	case indexFlow:
		bytes := p * topology.CacheLine * r.miss
		env.addSpreadTraffic(src, r.weights, bytes, p*lt.Data, p*lt.Total)
		c.AddCompute(src, p*env.Costs.MatInstrPerAccess/2, 0)
		env.addItem(r.item, r.attr, Traffic{Bytes: bytes, DictBytes: bytes})
	case matFlow:
		bytes := p * topology.CacheLine * r.miss
		env.addSpreadTraffic(src, r.weights, bytes, p*lt.Data, p*lt.Total)
		c.AddCompute(src, p*env.Costs.MatInstrPerAccess, 0)
		env.addItem(r.item, r.attr, Traffic{Bytes: bytes + p*env.Costs.OutBytesPerMatch, DictBytes: bytes})
	case aggFlow:
		c.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
		c.AddCompute(src, p*r.per*0.8, 0)
		env.addItem(r.item, dst, Traffic{Bytes: p, IVBytes: p})
	case joinStreamFlow:
		c.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
	case joinHTFlow:
		b := p * 64 * r.miss
		for s, frac := range r.weights {
			if frac > 0 {
				c.AddMemoryTraffic(src, s, b*frac, 0, 0)
			}
		}
		c.AddCompute(src, p*r.per, 0)
	case wrapFlow:
		c.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
		c.AddCompute(src, p*env.Costs.SharedScanInstrPerByte(r.n), 0)
	}
}

// emptied returns buf's storage emptied, with room for n elements; it
// allocates only when buf has too little.
func emptied[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// socketWeights returns buf resized to n zeroed entries.
func socketWeights(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
