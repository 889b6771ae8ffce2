package sim_test

import (
	"math/rand"
	"testing"

	"numacs/internal/exec"
	"numacs/internal/hw"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

// stepBed returns an engine on machine m with a steady population of flows
// in the proportions the benchmark's mat-skew workload keeps active (64
// clients, Target, 64 columns x 100k rows with 12..21-bit indexvectors
// split over 4 sockets, dictionaries interleaved over every socket,
// selectivity 10%). Sampled every 500 steps of a seed-1 run on the 4-socket
// IvyBridge, mat-skew held 129-148 flows on nearly all of the machine's 76
// resources: on average 85 IV streams (3.4 demands each), 34
// dictionary-probe flows (8 demands) and 20 demandless query-overhead
// delays. 61% of the streams read their own socket's memory, 18 flows were
// held at their RateCap, and an allocation took 61 cap rounds and 0.3
// bottleneck rounds. The bed builds each kind as
// exec builds it, with exec.DefaultCosts:
//
//   - an IV stream of one task's share of a partition, capped at one
//     thread's stream rate, with its bitvector output (one bit per row) on
//     the worker's memory controller;
//   - dictionary probes spread evenly over every socket, with the matched
//     values written locally;
//   - a query-overhead delay: QueryOverheadSeconds at rate cap 1.
//
// Most flows finish within one step and start again with a fresh size, so
// the population holds steady. Sizes come in discrete steps so that flows
// tie on their caps, as the equal tasks of a mat-skew statement do: on the
// 4-socket machine the bed's allocations take 63 cap rounds and no
// bottleneck round, with 18 flows at their RateCap.
//
// Levels on a 2-vCPU VM, three alternating runs of prebuilt test binaries at
// 3000 steps each: 28-35 µs a step on 4S-139 and 100-144 µs on 32S-256 with
// the drain log, the monotone scan bound and the merge-sorted cap order,
// against 49-68 µs and 231-302 µs when every round scanned and drained every
// loaded resource and the caps were ordered by pdqsort.
func stepBed(m *topology.Machine, flows int) *sim.Engine {
	const (
		rows        = 100_000 / 8 // one task's rows
		bitcase     = 16          // mid-range of mat-skew's 12..21-bit IVs
		selectivity = 0.1
		ivParts     = 4
	)
	c := exec.DefaultCosts()
	e := sim.New(20e-6)
	h := hw.New(e, m)
	rng := rand.New(rand.NewSource(1))
	spread := make([]float64, m.Sockets)
	for s := range spread {
		spread[s] = 1 / float64(m.Sockets)
	}
	streams, probes := flows*85/139, flows*34/139
	for i := 0; i < flows; i++ {
		src := i % m.Sockets
		core := h.Core[src][(i/m.Sockets)%m.CoresPerSocket]
		f := &sim.Flow{}
		var size func() float64
		switch {
		case i < streams:
			dst := src
			if rng.Float64() >= 0.61 {
				dst = (src + 1 + rng.Intn(min(ivParts, m.Sockets)-1)) % m.Sockets
			}
			f.Demands, _ = h.StreamDemandsInto(nil, src, dst, core, c.ScanCyclesPerByte)
			f.Demands = append(f.Demands, sim.Demand{Resource: h.MC[src], Weight: 1.0 / bitcase})
			f.RateCap = m.StreamRate(src, dst)
			size = func() float64 { return rows * bitcase / 8 * float64(32+rng.Intn(64)) / 64 }
		case i < streams+probes:
			f.Demands, f.RateCap, _ = h.RandomDemandsInto(nil, src, spread, core,
				c.MatCyclesPerAccess, c.OutBytesPerMatch, c.MatMissRate)
			size = func() float64 { return rows * selectivity * float64(8+rng.Intn(16)) / 16 }
		default:
			f.RateCap = 1
			size = func() float64 { return c.QueryOverheadSeconds }
		}
		f.Remaining = size()
		f.OnDone = func() {
			f.Remaining = size()
			e.StartFlow(f)
		}
		e.StartFlow(f)
	}
	return e
}

// BenchmarkSimStep times the simulator's step — its max-min allocation over
// every active flow plus the advance — on two instances: the 4-socket
// IvyBridge with mat-skew's 139 active flows, and the same mix at 256 flows
// on the 32-socket IvyBridge (a scale-up of the mix, not a measured
// workload). One "row" of the reported ns/row is one Step.
func BenchmarkSimStep(b *testing.B) {
	for _, c := range []struct {
		name  string
		m     *topology.Machine
		flows int
	}{
		{"4S-139", topology.FourSocketIvyBridge(), 139},
		{"32S-256", topology.ThirtyTwoSocketIvyBridge(), 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := stepBed(c.m, c.flows)
			for i := 0; i < 100; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
		})
	}
}
