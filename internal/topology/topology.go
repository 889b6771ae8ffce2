// Package topology describes NUMA machines: sockets, cores, hardware
// threads, memory controllers, interconnect links and routes, access
// latencies, and the cache-coherence protocol. It ships the three machines
// from Table 1 of the paper and a builder for custom topologies.
package topology

import (
	"fmt"
	"math"
)

// GiB is 2^30 bytes; bandwidths below are expressed in GiB/s for readability
// and converted to bytes/s.
const GiB = 1024 * 1024 * 1024

// linkRawFactor converts a measured payload bandwidth (Table 1's B/W rows,
// measured with Intel MLC) into the raw link capacity the simulator manages:
// raw capacity carries payload plus protocol/coherence overhead
// (LinkDataFactor), so a single-socket stream measures the Table 1 value.
const linkRawFactor = 1.35

// CacheLine is the coherence granule in bytes.
const CacheLine = 64

// Coherence identifies the cache-coherence protocol, which determines how
// much interconnect traffic memory accesses generate beyond the data itself.
type Coherence int

const (
	// Directory-based coherence (Ivybridge-EX): snoops are targeted, so the
	// coherence tax is a modest per-byte inflation on the data's route.
	Directory Coherence = iota
	// BroadcastSnoop (Westmere-EX): every memory access broadcasts snoops on
	// all links of the requesting socket, so even purely local streaming
	// consumes interconnect bandwidth. This is why the 8-socket machine's
	// total local bandwidth (96.2 GiB/s) is far below the per-socket sum
	// (8 x 19.3 = 154.4 GiB/s) in Table 1.
	BroadcastSnoop
)

// String names the coherence protocol.
func (c Coherence) String() string {
	switch c {
	case Directory:
		return "directory"
	case BroadcastSnoop:
		return "broadcast-snoop"
	default:
		return fmt.Sprintf("coherence(%d)", int(c))
	}
}

// Link is a directed interconnect link between two sockets (or between a
// socket and an off-socket router on hierarchical machines; routers are
// modelled as extra nodes past the socket indices).
type Link struct {
	From, To  int
	Bandwidth float64 // bytes/s usable for data+coherence in this direction
}

// Machine is a complete NUMA machine description.
type Machine struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	FreqHz         float64

	// MCBandwidth is the per-socket memory-controller bandwidth in bytes/s
	// ("local B/W" row of Table 1).
	MCBandwidth float64

	// Nodes is the total node count in the link graph: sockets first, then
	// any routers. Links reference node indices.
	Nodes int
	Links []Link

	// LocalLatency is the idle local DRAM latency in seconds; HopLatency is
	// the added latency per link traversed.
	LocalLatency float64
	HopLatency   float64
	// MaxLatency optionally clamps the worst-case latency (Table 1's "max
	// hops latency"); zero means no clamp.
	MaxLatency float64
	// RouterLatency is added per intermediate router node traversed
	// (NUMAlink routers on the rack-scale machine add more latency than a
	// direct QPI hop).
	RouterLatency float64

	Coherence Coherence
	// SnoopFactor is the fraction of each memory-access byte that is
	// broadcast as snoop traffic on every link of the accessing socket under
	// BroadcastSnoop coherence.
	SnoopFactor float64
	// LinkDataFactor inflates data bytes on each route link to account for
	// request/acknowledgement and directory-coherence overhead.
	LinkDataFactor float64

	// MLP is the number of outstanding cache-line misses a single hardware
	// thread sustains while streaming; it bounds the per-thread streaming
	// rate to CacheLine*MLP/latency.
	MLP float64
	// RandomMLP is the same bound for dependent random accesses
	// (materialization dictionary probes, index chasing).
	RandomMLP float64
	// HTEfficiency is the combined throughput of two hardware threads on one
	// core relative to one thread (e.g. 1.25 = +25%).
	HTEfficiency float64

	routes [][][]int // src socket -> dst socket -> link indices along route
	hops   [][]int   // src -> dst -> number of links
	lat    [][]float64

	outLinks [][]int // socket -> indices of links leaving that socket
}

// TotalThreads returns the number of hardware contexts of the machine.
func (m *Machine) TotalThreads() int {
	return m.Sockets * m.CoresPerSocket * m.ThreadsPerCore
}

// ThreadsPerSocket returns the hardware contexts per socket.
func (m *Machine) ThreadsPerSocket() int {
	return m.CoresPerSocket * m.ThreadsPerCore
}

// Route returns the link indices traversed from socket src to socket dst.
// The route is empty for local access.
func (m *Machine) Route(src, dst int) []int { return m.routes[src][dst] }

// Hops returns the number of links between two sockets.
func (m *Machine) Hops(src, dst int) int { return m.hops[src][dst] }

// Latency returns the DRAM access latency in seconds from a core on socket
// src to memory on socket dst.
func (m *Machine) Latency(src, dst int) float64 { return m.lat[src][dst] }

// SocketLinks returns the indices of links leaving the given socket.
func (m *Machine) SocketLinks(s int) []int { return m.outLinks[s] }

// StreamRate returns the per-hardware-thread streaming bandwidth bound in
// bytes/s for accesses from socket src to memory on socket dst.
func (m *Machine) StreamRate(src, dst int) float64 {
	return CacheLine * m.MLP / m.Latency(src, dst)
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

// Finalize computes routes, hop counts, and latencies from the link graph.
// It must be called after constructing a custom Machine; the shipped
// machines are already finalized.
func (m *Machine) Finalize() error {
	if m.Sockets <= 0 || m.Nodes < m.Sockets {
		return fmt.Errorf("topology: bad node counts (sockets=%d nodes=%d)", m.Sockets, m.Nodes)
	}
	adj := make([][]int, m.Nodes) // node -> link indices out
	for i, l := range m.Links {
		if l.From < 0 || l.From >= m.Nodes || l.To < 0 || l.To >= m.Nodes {
			return fmt.Errorf("topology: link %d endpoints out of range", i)
		}
		adj[l.From] = append(adj[l.From], i)
	}
	m.routes = make([][][]int, m.Sockets)
	m.hops = make([][]int, m.Sockets)
	m.lat = make([][]float64, m.Sockets)
	m.outLinks = make([][]int, m.Sockets)
	for s := 0; s < m.Sockets; s++ {
		m.outLinks[s] = adj[s]
		m.routes[s] = make([][]int, m.Sockets)
		m.hops[s] = make([]int, m.Sockets)
		m.lat[s] = make([]float64, m.Sockets)
		// BFS from s over the link graph.
		prevLink := make([]int, m.Nodes)
		dist := make([]int, m.Nodes)
		for i := range prevLink {
			prevLink[i] = -1
			dist[i] = math.MaxInt32
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, li := range adj[n] {
				to := m.Links[li].To
				if dist[to] == math.MaxInt32 {
					dist[to] = dist[n] + 1
					prevLink[to] = li
					queue = append(queue, to)
				}
			}
		}
		for d := 0; d < m.Sockets; d++ {
			if d == s {
				m.lat[s][d] = m.LocalLatency
				continue
			}
			if dist[d] == math.MaxInt32 {
				return fmt.Errorf("topology: socket %d unreachable from %d", d, s)
			}
			// Reconstruct route.
			var route []int
			for n := d; n != s; {
				li := prevLink[n]
				route = append(route, li)
				n = m.Links[li].From
			}
			// Reverse in place.
			for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
				route[i], route[j] = route[j], route[i]
			}
			m.routes[s][d] = route
			m.hops[s][d] = dist[d]
			lat := m.LocalLatency + float64(dist[d])*m.HopLatency
			// Intermediate nodes past the socket range are routers.
			for _, li := range route {
				if m.Links[li].To >= m.Sockets {
					lat += m.RouterLatency
				}
			}
			if m.MaxLatency > 0 && lat > m.MaxLatency {
				lat = m.MaxLatency
			}
			m.lat[s][d] = lat
		}
	}
	return nil
}

// mesh adds full-mesh bidirectional links among the given nodes.
func mesh(links []Link, nodes []int, bw float64) []Link {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				links = append(links, Link{From: a, To: b, Bandwidth: bw})
			}
		}
	}
	return links
}

// FourSocketIvyBridge models the paper's main machine: 4 sockets of 15-core
// Intel Xeon E7-4880 v2 (Ivybridge-EX) at 2.5 GHz, fully interconnected with
// QPI, directory coherence. Table 1 column 1.
func FourSocketIvyBridge() *Machine {
	m := &Machine{
		Name:           "4S-IvybridgeEX",
		Sockets:        4,
		CoresPerSocket: 15,
		ThreadsPerCore: 2,
		FreqHz:         2.5e9,
		MCBandwidth:    65 * GiB,
		Nodes:          4,
		LocalLatency:   150e-9,
		HopLatency:     90e-9, // 150 + 90 = 240 ns one hop
		Coherence:      Directory,
		SnoopFactor:    0,
		LinkDataFactor: 1.35,
		MLP:            10,
		RandomMLP:      4,
		HTEfficiency:   1.25,
	}
	m.Links = mesh(nil, []int{0, 1, 2, 3}, 8.8*linkRawFactor*GiB)
	if err := m.Finalize(); err != nil {
		panic(err)
	}
	return m
}

// EightSocketWestmere models the 8-socket Westmere-EX machine: two IBM x3950
// X5 boxes of 4 sockets each (E7-8870, 10 cores, 2.4 GHz), QPI mesh inside a
// box, two inter-box links, broadcast-snoop coherence. Table 1 column 3.
func EightSocketWestmere() *Machine {
	m := &Machine{
		Name:           "8S-WestmereEX",
		Sockets:        8,
		CoresPerSocket: 10,
		ThreadsPerCore: 2,
		FreqHz:         2.4e9,
		MCBandwidth:    19.3 * GiB,
		Nodes:          8,
		LocalLatency:   163e-9,
		HopLatency:     41e-9, // 163+41=204 ~ 195 ns one hop; 245 ns two hops
		MaxLatency:     245e-9,
		Coherence:      BroadcastSnoop,
		// Snoops broadcast along the routes to every other socket; the factor
		// is calibrated (together with the link raws below) so the machine
		// measures Table 1's column: 19.3 GiB/s per-socket local, ~10.3
		// 1-hop, ~4.6 max-hop, and — crucially — a total local bandwidth of
		// ~96 GiB/s instead of the 154 GiB/s per-socket sum.
		SnoopFactor:    0.0617,
		LinkDataFactor: 1.35,
		MLP:            8,
		RandomMLP:      4,
		HTEfficiency:   1.25,
	}
	var links []Link
	links = mesh(links, []int{0, 1, 2, 3}, 10.8*linkRawFactor*GiB)
	links = mesh(links, []int{4, 5, 6, 7}, 10.8*linkRawFactor*GiB)
	// Two inter-box QPI links (each direction), shared by all cross-box pairs.
	for _, p := range [][2]int{{0, 4}, {3, 7}} {
		links = append(links,
			Link{From: p[0], To: p[1], Bandwidth: 5.5 * linkRawFactor * GiB},
			Link{From: p[1], To: p[0], Bandwidth: 5.5 * linkRawFactor * GiB})
	}
	m.Links = links
	if err := m.Finalize(); err != nil {
		panic(err)
	}
	return m
}

// ThirtyTwoSocketIvyBridge models the SGI UV 300 rack-scale machine: 32
// sockets of E7-8890 v2 (15 cores, 2.8 GHz) arranged as 8 blades of 4
// sockets; sockets inside a blade are fully interconnected, and each blade
// has a NUMAlink router; routers are fully interconnected. Table 1 column 2.
func ThirtyTwoSocketIvyBridge() *Machine {
	return HierarchicalIvyBridge(8)
}

// SixteenSocketIvyBridge is half of the rack-scale machine: Section 6.3
// splits the 32-socket system into two 16-socket halves, one hosting the
// database server.
func SixteenSocketIvyBridge() *Machine {
	return HierarchicalIvyBridge(4)
}

// HierarchicalIvyBridge builds an SGI-UV-style machine with the given number
// of 4-socket blades.
func HierarchicalIvyBridge(blades int) *Machine {
	const perBlade = 4
	m := &Machine{
		Name:           fmt.Sprintf("%dS-IvybridgeEX", blades*perBlade),
		Sockets:        blades * perBlade,
		CoresPerSocket: 15,
		ThreadsPerCore: 2,
		FreqHz:         2.8e9,
		MCBandwidth:    47.5 * GiB,
		Nodes:          blades*perBlade + blades, // sockets + one router per blade
		LocalLatency:   112e-9,
		HopLatency:     81e-9,   // 1 hop (intra-blade): 193 ns
		RouterLatency:  72.5e-9, // inter-blade (3 links + 2 routers): 500 ns
		MaxLatency:     500e-9,
		Coherence:      Directory,
		SnoopFactor:    0,
		LinkDataFactor: 1.35,
		MLP:            10,
		RandomMLP:      4,
		HTEfficiency:   1.25,
	}
	var links []Link
	for b := 0; b < blades; b++ {
		nodes := make([]int, perBlade)
		for i := range nodes {
			nodes[i] = b*perBlade + i
		}
		links = mesh(links, nodes, 11.8*linkRawFactor*GiB)
		// Socket <-> blade router links.
		router := blades*perBlade + b
		for _, s := range nodes {
			links = append(links,
				Link{From: s, To: router, Bandwidth: 9.8 * linkRawFactor * GiB},
				Link{From: router, To: s, Bandwidth: 9.8 * linkRawFactor * GiB})
		}
	}
	// Router full mesh (NUMAlink backplane).
	routers := make([]int, blades)
	for b := range routers {
		routers[b] = blades*perBlade + b
	}
	links = mesh(links, routers, 9.8*linkRawFactor*GiB)
	m.Links = links
	if err := m.Finalize(); err != nil {
		panic(err)
	}
	return m
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
