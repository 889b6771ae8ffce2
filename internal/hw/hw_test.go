package hw

import (
	"math"
	"slices"
	"testing"

	"numacs/internal/sim"
	"numacs/internal/topology"
)

func TestResourceRegistration(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-4)
	h := New(e, m)
	if len(h.MC) != 4 {
		t.Fatalf("MCs = %d", len(h.MC))
	}
	if len(h.Link) != len(m.Links) {
		t.Fatalf("links = %d, want %d", len(h.Link), len(m.Links))
	}
	if len(h.Core) != 4 || len(h.Core[0]) != 15 {
		t.Fatalf("cores = %dx%d", len(h.Core), len(h.Core[0]))
	}
	if got := e.ResourceCapacity(h.MC[0]); got != m.MCBandwidth {
		t.Fatalf("MC capacity = %v", got)
	}
	// Core capacity includes the hyperthreading efficiency.
	if got := e.ResourceCapacity(h.Core[0][0]); math.Abs(got-m.FreqHz*m.HTEfficiency) > 1 {
		t.Fatalf("core capacity = %v", got)
	}
}

func TestStreamDemandsLocal(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-4)
	h := New(e, m)
	d, lt := h.StreamDemandsInto(nil, 0, 0, h.Core[0][0], 0.5)
	// Local: MC + core only, no links, no link traffic.
	if len(d) != 2 {
		t.Fatalf("local demands = %+v", d)
	}
	if d[0].Resource != h.MC[0] || d[0].Weight != 1.0 {
		t.Fatalf("local MC demand = %+v", d[0])
	}
	if lt.Data != 0 || lt.Total != 0 {
		t.Fatalf("local stream has link traffic: %+v", lt)
	}
}

func TestStreamDemandsRemote(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-4)
	h := New(e, m)
	d, lt := h.StreamDemandsInto(nil, 0, 2, h.Core[0][0], 0)
	// Remote: penalized MC + one link.
	foundMC, foundLink := false, false
	for _, dem := range d {
		if dem.Resource == h.MC[2] {
			foundMC = true
			if dem.Weight != RemoteMCPenalty {
				t.Fatalf("remote MC weight = %v", dem.Weight)
			}
		}
		for _, li := range m.Route(0, 2) {
			if dem.Resource == h.Link[li] {
				foundLink = true
				if math.Abs(dem.Weight-m.LinkDataFactor) > 1e-12 {
					t.Fatalf("link weight = %v", dem.Weight)
				}
			}
		}
	}
	if !foundMC || !foundLink {
		t.Fatalf("remote demands incomplete: %+v", d)
	}
	if lt.Data != 1 || math.Abs(lt.Total-m.LinkDataFactor) > 1e-12 {
		t.Fatalf("link traffic = %+v", lt)
	}
}

func TestBroadcastSnoopAddsLinkDemandsToLocalStreams(t *testing.T) {
	m := topology.EightSocketWestmere()
	e := sim.New(1e-4)
	h := New(e, m)
	d, lt := h.StreamDemandsInto(nil, 0, 0, h.Core[0][0], 0)
	links := 0
	for _, dem := range d {
		for _, id := range h.Link {
			if dem.Resource == id {
				links++
			}
		}
	}
	if links == 0 {
		t.Fatal("broadcast machine: local stream should snoop on links")
	}
	if lt.Total <= 0 {
		t.Fatal("broadcast snoop traffic not accounted")
	}
	if lt.Data != 0 {
		t.Fatal("local stream should carry no link data payload")
	}
}

// TestBroadcastSnoopTotalsDeterministic: the per-byte snoop link total is a
// float sum, so it must be accumulated in one fixed order — every
// construction of the machine has to report the same bits.
func TestBroadcastSnoopTotalsDeterministic(t *testing.T) {
	m := topology.EightSocketWestmere()
	totals := func() []float64 {
		h := New(sim.New(1e-4), m)
		out := make([]float64, m.Sockets)
		for s := range out {
			_, lt := h.StreamDemandsInto(nil, s, s, sim.Invalid, 0)
			out[s] = lt.Total
		}
		return out
	}
	want := totals()
	for i := 0; i < 100; i++ {
		got := totals()
		for s := range got {
			if got[s] != want[s] {
				t.Fatalf("construction %d: socket %d snoop total %v, first construction %v", i, s, got[s], want[s])
			}
		}
	}
}

func TestDirectoryMachineHasNoSnoopOnLocal(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-4)
	h := New(e, m)
	d, _ := h.StreamDemandsInto(nil, 1, 1, sim.Invalid, 0)
	if len(d) != 1 {
		t.Fatalf("directory local stream demands = %+v", d)
	}
}

func TestRandomDemandsMissRate(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-4)
	h := New(e, m)
	w := make([]float64, 4)
	w[0] = 1
	// Full miss: heavy MC demand, low cap.
	_, capMiss, _ := h.RandomDemandsInto(nil, 0, w, sim.Invalid, 0, 0, 1.0)
	// Mostly hits: much higher cap, lighter MC demand.
	dHit, capHit, _ := h.RandomDemandsInto(nil, 0, w, sim.Invalid, 0, 0, 0.1)
	if capHit <= capMiss {
		t.Fatalf("cache hits should raise the access rate: %v vs %v", capHit, capMiss)
	}
	var mcw float64
	for _, dem := range dHit {
		if dem.Resource == h.MC[0] {
			mcw = dem.Weight
		}
	}
	if math.Abs(mcw-0.1*topology.CacheLine) > 1e-9 {
		t.Fatalf("MC weight at 10%% miss = %v", mcw)
	}
	// Full-miss local cap equals RandomMLP/latency.
	want := m.RandomMLP / m.LocalLatency
	if math.Abs(capMiss-want)/want > 1e-9 {
		t.Fatalf("full-miss cap = %v, want %v", capMiss, want)
	}
}

func TestRandomDemandsInterleavedSpread(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-4)
	h := New(e, m)
	w := []float64{0.25, 0.25, 0.25, 0.25}
	d, rateCap, lt := h.RandomDemandsInto(nil, 0, w, sim.Invalid, 0, 0, 1.0)
	mcs := 0
	for _, dem := range d {
		for _, id := range h.MC {
			if dem.Resource == id {
				mcs++
			}
		}
	}
	if mcs != 4 {
		t.Fatalf("interleaved access should hit all 4 MCs, got %d", mcs)
	}
	// Cap uses the average latency: worse than local, better than remote.
	local := m.RandomMLP / m.LocalLatency
	remote := m.RandomMLP / m.Latency(0, 1)
	if rateCap >= local || rateCap <= remote {
		t.Fatalf("interleaved cap %v not between remote %v and local %v", rateCap, remote, local)
	}
	if lt.Data <= 0 {
		t.Fatal("interleaved access should cross links")
	}
}

func TestRandomDemandsExtraLocalBytes(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-4)
	h := New(e, m)
	w := make([]float64, 4)
	w[2] = 1
	d, _, _ := h.RandomDemandsInto(nil, 1, w, sim.Invalid, 0, 12, 1.0)
	var localW float64
	for _, dem := range d {
		if dem.Resource == h.MC[1] {
			localW = dem.Weight
		}
	}
	if localW != 12 {
		t.Fatalf("output-write weight on local MC = %v, want 12", localW)
	}
}

func TestComputeDemands(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-4)
	h := New(e, m)
	d, rateCap := h.ComputeDemands(h.Core[0][0])
	if len(d) != 1 || d[0].Weight != 1 {
		t.Fatalf("compute demands = %+v", d)
	}
	if rateCap != m.FreqHz {
		t.Fatalf("compute cap = %v", rateCap)
	}
}

func TestMCUtilization(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(1e-3)
	h := New(e, m)
	d, _ := h.StreamDemandsInto(nil, 0, 0, sim.Invalid, 0)
	e.StartFlow(&sim.Flow{Remaining: 1e6, RateCap: 1e9, Demands: d})
	e.Run(0.01)
	u := h.MCUtilization()
	if u[0] != 1e6 {
		t.Fatalf("MC utilization = %v", u)
	}
	if u[1] != 0 {
		t.Fatal("idle MC shows utilization")
	}
}

// TestRandomDemandsAllocatesOnce: the per-socket and per-link weights live in
// the Hardware's scratch, so a random-access flow's one allocation is its
// demand vector, sized exactly — on a broadcast-snoop machine too, whose
// snoops add link demands — and a buffer that already holds one makes the
// call allocate nothing. The same holds for a streaming flow's vector.
func TestRandomDemandsAllocatesOnce(t *testing.T) {
	for _, m := range []*topology.Machine{topology.FourSocketIvyBridge(), topology.EightSocketWestmere()} {
		h := New(sim.New(1e-4), m)
		w := make([]float64, m.Sockets)
		for s := range w {
			w[s] = 1 / float64(m.Sockets)
		}
		var d []sim.Demand
		if n := testing.AllocsPerRun(100, func() {
			d, _, _ = h.RandomDemandsInto(nil, 1, w, h.Core[1][0], 10, 4, 0.5)
		}); n != 1 {
			t.Fatalf("%s: RandomDemandsInto allocates %v times, want 1", m.Name, n)
		}
		if len(d) != cap(d) {
			t.Fatalf("%s: demand vector len %d, cap %d", m.Name, len(d), cap(d))
		}
		want := slices.Clone(d)
		if n := testing.AllocsPerRun(100, func() {
			d, _, _ = h.RandomDemandsInto(d, 1, w, h.Core[1][0], 10, 4, 0.5)
		}); n != 0 || !slices.Equal(d, want) {
			t.Fatalf("%s: into a warm buffer RandomDemandsInto allocates %v times, gives %v, want %v", m.Name, n, d, want)
		}
		s, _ := h.StreamDemandsInto(nil, 0, 2, h.Core[0][0], 0.5)
		want = slices.Clone(s)
		if n := testing.AllocsPerRun(100, func() {
			s, _ = h.StreamDemandsInto(s, 0, 2, h.Core[0][0], 0.5)
		}); n != 0 || !slices.Equal(s, want) {
			t.Fatalf("%s: into a warm buffer StreamDemandsInto allocates %v times, gives %v, want %v", m.Name, n, s, want)
		}
	}
}

// ComputeDemands returns the demand vector for a pure compute flow (units
// are cycles) and its rate cap (one thread retires at most FreqHz cycles/s).
func (h *Hardware) ComputeDemands(core sim.ResourceID) ([]sim.Demand, float64) {
	return []sim.Demand{{Resource: core, Weight: 1}}, h.Machine.FreqHz
}
