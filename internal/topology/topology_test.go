package topology

import (
	"fmt"
	"math"
	"testing"
)

func TestFourSocketShape(t *testing.T) {
	m := FourSocketIvyBridge()
	if m.Sockets != 4 || m.CoresPerSocket != 15 || m.ThreadsPerCore != 2 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	if m.TotalThreads() != 120 {
		t.Fatalf("TotalThreads = %d, want 120", m.TotalThreads())
	}
	if m.MaxHops() != 1 {
		t.Fatalf("4-socket machine should be fully interconnected, max hops = %d", m.MaxHops())
	}
	// Table 1: local 150 ns, 1 hop 240 ns.
	if got := m.Latency(0, 0); math.Abs(got-150e-9) > 1e-12 {
		t.Fatalf("local latency = %v", got)
	}
	if got := m.Latency(0, 3); math.Abs(got-240e-9) > 1e-12 {
		t.Fatalf("1-hop latency = %v", got)
	}
}

func TestFourSocketRoutes(t *testing.T) {
	m := FourSocketIvyBridge()
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			r := m.Route(s, d)
			if s == d {
				if len(r) != 0 {
					t.Fatalf("local route not empty: %v", r)
				}
				continue
			}
			if len(r) != 1 {
				t.Fatalf("route %d->%d has %d links, want 1", s, d, len(r))
			}
			l := m.Links[r[0]]
			if l.From != s || l.To != d {
				t.Fatalf("route %d->%d uses link %+v", s, d, l)
			}
		}
	}
}

func TestEightSocketWestmere(t *testing.T) {
	m := EightSocketWestmere()
	if m.Coherence != BroadcastSnoop {
		t.Fatal("Westmere must use broadcast-snoop coherence")
	}
	if m.MaxHops() < 2 {
		t.Fatalf("8-socket machine should be multi-hop, max hops = %d", m.MaxHops())
	}
	// Table 1: local 163 ns, max hops 245 ns.
	if got := m.Latency(0, 0); math.Abs(got-163e-9) > 1e-12 {
		t.Fatalf("local latency = %v", got)
	}
	// Cross-box worst case is clamped at 245 ns.
	worst := 0.0
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if m.Latency(s, d) > worst {
				worst = m.Latency(s, d)
			}
		}
	}
	if math.Abs(worst-245e-9) > 1e-12 {
		t.Fatalf("max latency = %v, want 245 ns", worst)
	}
}

func TestThirtyTwoSocket(t *testing.T) {
	m := ThirtyTwoSocketIvyBridge()
	if m.Sockets != 32 {
		t.Fatalf("sockets = %d", m.Sockets)
	}
	if m.TotalThreads() != 960 {
		t.Fatalf("TotalThreads = %d, want 960", m.TotalThreads())
	}
	// Intra-blade: 1 hop, 193 ns.
	if got := m.Latency(0, 1); math.Abs(got-193e-9) > 1e-12 {
		t.Fatalf("intra-blade latency = %v", got)
	}
	// Inter-blade: 3 links (socket->router->router->socket), clamped 500 ns.
	if h := m.Hops(0, 4); h != 3 {
		t.Fatalf("inter-blade hops = %d, want 3", h)
	}
	// Table 1: max hops latency 500 ns (3 links + 2 NUMAlink routers).
	if got := m.Latency(0, 4); math.Abs(got-500e-9) > 1e-12 {
		t.Fatalf("inter-blade latency = %v, want 500 ns", got)
	}
	// All sockets reachable.
	for s := 0; s < 32; s++ {
		for d := 0; d < 32; d++ {
			if s != d && len(m.Route(s, d)) == 0 {
				t.Fatalf("no route %d->%d", s, d)
			}
		}
	}
}

func TestRoutesAreConnectedPaths(t *testing.T) {
	for _, m := range []*Machine{FourSocketIvyBridge(), EightSocketWestmere(), ThirtyTwoSocketIvyBridge()} {
		for s := 0; s < m.Sockets; s++ {
			for d := 0; d < m.Sockets; d++ {
				if s == d {
					continue
				}
				at := s
				for _, li := range m.Route(s, d) {
					l := m.Links[li]
					if l.From != at {
						t.Fatalf("%s: route %d->%d broken at node %d (link %+v)", m.Name, s, d, at, l)
					}
					at = l.To
				}
				if at != d {
					t.Fatalf("%s: route %d->%d ends at %d", m.Name, s, d, at)
				}
			}
		}
	}
}

func TestStreamRateLocalFasterThanRemote(t *testing.T) {
	for _, m := range []*Machine{FourSocketIvyBridge(), EightSocketWestmere(), ThirtyTwoSocketIvyBridge()} {
		local := m.StreamRate(0, 0)
		for d := 1; d < m.Sockets; d++ {
			if r := m.StreamRate(0, d); r >= local {
				t.Fatalf("%s: remote stream rate to %d (%v) >= local (%v)", m.Name, d, r, local)
			}
		}
	}
}

func TestSocketLinksLeaveSocket(t *testing.T) {
	m := ThirtyTwoSocketIvyBridge()
	out := make([]int, m.Sockets)
	for _, l := range m.Links {
		if l.From < m.Sockets {
			out[l.From]++
		}
	}
	for s, n := range out {
		if n == 0 {
			t.Fatalf("socket %d has no outgoing links", s)
		}
	}
}

func TestFinalizeErrors(t *testing.T) {
	m := &Machine{Sockets: 2, Nodes: 2} // no links: unreachable
	if err := m.Finalize(); err == nil {
		t.Fatal("expected unreachable-socket error")
	}
	m = &Machine{Sockets: 2, Nodes: 2, Links: []Link{{From: 0, To: 5}}}
	if err := m.Finalize(); err == nil {
		t.Fatal("expected out-of-range link error")
	}
	m = &Machine{Sockets: 0}
	if err := m.Finalize(); err == nil {
		t.Fatal("expected bad node count error")
	}
}

func TestUniformBuilder(t *testing.T) {
	m := Uniform(2, 4, 10, 5)
	if m.Sockets != 2 || m.TotalThreads() != 16 {
		t.Fatalf("unexpected uniform machine: %+v", m)
	}
	if m.MCBandwidth != 10*GiB {
		t.Fatalf("MC bandwidth = %v", m.MCBandwidth)
	}
}

// MaxHops returns the diameter of the socket graph in links.
func (m *Machine) MaxHops() int {
	max := 0
	for s := 0; s < m.Sockets; s++ {
		for d := 0; d < m.Sockets; d++ {
			if m.hops[s][d] > max {
				max = m.hops[s][d]
			}
		}
	}
	return max
}

// Uniform builds a simple fully-interconnected machine, mainly for tests.
func Uniform(sockets, coresPerSocket int, mcGiBs, linkGiBs float64) *Machine {
	m := &Machine{
		Name:           fmt.Sprintf("uniform-%ds", sockets),
		Sockets:        sockets,
		CoresPerSocket: coresPerSocket,
		ThreadsPerCore: 2,
		FreqHz:         2.5e9,
		MCBandwidth:    mcGiBs * GiB,
		Nodes:          sockets,
		LocalLatency:   150e-9,
		HopLatency:     90e-9,
		Coherence:      Directory,
		LinkDataFactor: 1.35,
		MLP:            10,
		RandomMLP:      4,
		HTEfficiency:   1.25,
	}
	nodes := make([]int, sockets)
	for i := range nodes {
		nodes[i] = i
	}
	m.Links = mesh(nil, nodes, linkGiBs*GiB)
	if err := m.Finalize(); err != nil {
		panic(err)
	}
	return m
}
