// Package hw instantiates a topology.Machine as simulator resources: one
// bandwidth resource per memory controller, one per directed interconnect
// link, and one compute resource per core (shared by its hardware threads).
// It also builds the demand vectors that memory-access flows place on those
// resources, including the cache-coherence traffic models.
package hw

import (
	"numacs/internal/sim"
	"numacs/internal/topology"
)

// RemoteMCPenalty inflates the memory-controller capacity consumed by each
// remotely-requested byte: remote requests queue less efficiently and carry
// coherence state, so a saturated socket serves fewer useful bytes when
// remote stealers pile onto it (the Section 6.2.1 effect).
const RemoteMCPenalty = 1.3

// Hardware binds a machine description to engine resources.
type Hardware struct {
	Machine *topology.Machine
	Engine  *sim.Engine

	MC   []sim.ResourceID   // per socket
	Link []sim.ResourceID   // per directed link, indexed as Machine.Links
	Core [][]sim.ResourceID // per socket, per core

	// bcast[src] holds, for broadcast-snoop machines, the per-byte link
	// demands generated by snooping every other socket from src: weight =
	// SnoopFactor x (number of destination sockets whose route crosses the
	// link). Nil for directory machines.
	bcast      [][]sim.Demand
	bcastLinks []float64 // total link-weight per byte, for traffic metrics

	// mcw and linkw are RandomDemandsInto's per-socket and per-link weight
	// scratch. Sharing them is safe because an engine, with its hardware,
	// runs on one goroutine.
	mcw   []float64
	linkw []float64
}

// New registers all machine resources with the engine.
func New(e *sim.Engine, m *topology.Machine) *Hardware {
	h := &Hardware{Machine: m, Engine: e,
		mcw: make([]float64, m.Sockets), linkw: make([]float64, len(m.Links))}
	h.MC = make([]sim.ResourceID, m.Sockets)
	for s := range h.MC {
		h.MC[s] = e.AddResource("mc", m.MCBandwidth)
	}
	h.Link = make([]sim.ResourceID, len(m.Links))
	for i, l := range m.Links {
		h.Link[i] = e.AddResource("link", l.Bandwidth)
	}
	h.Core = make([][]sim.ResourceID, m.Sockets)
	for s := range h.Core {
		h.Core[s] = make([]sim.ResourceID, m.CoresPerSocket)
		for c := range h.Core[s] {
			// Two hardware threads share a core; together they achieve
			// HTEfficiency x the single-thread cycle rate.
			h.Core[s][c] = e.AddResource("core", m.FreqHz*m.HTEfficiency)
		}
	}
	if m.Coherence == topology.BroadcastSnoop && m.SnoopFactor > 0 {
		h.bcast = make([][]sim.Demand, m.Sockets)
		h.bcastLinks = make([]float64, m.Sockets)
		perLink := make([]float64, len(m.Links))
		for src := 0; src < m.Sockets; src++ {
			clear(perLink)
			for d := 0; d < m.Sockets; d++ {
				if d == src {
					continue
				}
				for _, li := range m.Route(src, d) {
					perLink[li] += m.SnoopFactor
				}
			}
			// Link index order: the demands come out sorted by resource (links
			// are registered contiguously) and the float total sums in one
			// fixed order, so every construction yields the same bits.
			for li, w := range perLink {
				if w > 0 {
					h.bcast[src] = append(h.bcast[src], sim.Demand{Resource: h.Link[li], Weight: w})
					h.bcastLinks[src] += w
				}
			}
		}
	}
	return h
}

// LinkTraffic describes the interconnect bytes one payload byte generates:
// Data is pure payload crossing links; Total additionally includes protocol
// and coherence overhead. Both are pre-multiplied by the number of links
// traversed so they can be accumulated directly.
type LinkTraffic struct {
	Data  float64
	Total float64
}

// StreamDemandsInto returns the demand vector for a streaming flow of
// payload bytes read by a thread on socket src from memory on socket dst,
// plus the per-byte link traffic for metrics. cyclesPerByte is the compute
// cost the same flow exerts on its core. The vector is written into buf's
// storage; it allocates only when buf is too small for the vector plus one
// demand the caller may append (the scan's output write).
func (h *Hardware) StreamDemandsInto(buf []sim.Demand, src, dst int, core sim.ResourceID, cyclesPerByte float64) ([]sim.Demand, LinkTraffic) {
	m := h.Machine
	route := m.Route(src, dst)
	snoops := 0
	if h.bcast != nil {
		snoops = len(h.bcast[src])
	}
	d := buf[:0]
	if n := 1 + len(route) + snoops + 2; cap(d) < n {
		d = make([]sim.Demand, 0, n)
	}
	var lt LinkTraffic
	mcWeight := 1.0
	if src != dst {
		mcWeight = RemoteMCPenalty
	}
	d = append(d, sim.Demand{Resource: h.MC[dst], Weight: mcWeight})
	for _, li := range route {
		d = append(d, sim.Demand{Resource: h.Link[li], Weight: m.LinkDataFactor})
		lt.Data++
		lt.Total += m.LinkDataFactor
	}
	if h.bcast != nil {
		// Every access broadcasts snoops along the routes to every other
		// socket, even for local streaming — the Westmere behaviour that
		// caps aggregate local bandwidth far below the per-socket sum.
		d = append(d, h.bcast[src]...)
		lt.Total += h.bcastLinks[src]
	}
	if cyclesPerByte > 0 && core != sim.Invalid {
		d = append(d, sim.Demand{Resource: core, Weight: cyclesPerByte})
	}
	return d, lt
}

// L3HitLatency is the last-level-cache hit latency used by the random-access
// model.
const L3HitLatency = 15e-9

// RandomDemandsInto returns the demand vector, written into buf's storage,
// for a dependent random-access flow (units are accesses) from socket src
// to memory spread over dstWeights (fraction of accesses hitting each
// socket; weights should sum to 1 — an interleaved structure spreads
// uniformly, a plain one has a single non-zero entry). missRate is the fraction of accesses missing the last-level cache
// and reaching DRAM — dictionaries largely fit in the L3, which is what
// makes materialization CPU-intensive rather than bandwidth-intensive
// (Sections 6.1.5, 6.2.3/6.2.4). extraLocalBytes adds streaming bytes per
// access on the local MC (e.g. output writes). cyclesPerAccess is the
// compute cost. The returned cap is the latency-bound access rate. The call
// allocates only when buf is too small for the vector.
func (h *Hardware) RandomDemandsInto(buf []sim.Demand, src int, dstWeights []float64, core sim.ResourceID,
	cyclesPerAccess, extraLocalBytes, missRate float64) (demands []sim.Demand, rateCap float64, lt LinkTraffic) {

	m := h.Machine
	if missRate < 0 {
		missRate = 0
	}
	if missRate > 1 {
		missRate = 1
	}
	mcw, linkw := h.mcw, h.linkw
	clear(mcw)
	clear(linkw)
	avgMemLatency := 0.0
	for dst, frac := range dstWeights {
		if frac == 0 {
			continue
		}
		w := topology.CacheLine * frac * missRate
		if src != dst {
			mcw[dst] += w * RemoteMCPenalty
		} else {
			mcw[dst] += w
		}
		for _, li := range m.Route(src, dst) {
			linkw[li] += w * m.LinkDataFactor
			lt.Data += w
			lt.Total += w * m.LinkDataFactor
		}
		avgMemLatency += frac * m.Latency(src, dst)
	}
	if h.bcast != nil && missRate > 0 {
		for _, d := range h.bcast[src] {
			// Link resources are registered contiguously, so the resource id
			// maps back to the link index directly.
			linkw[int(d.Resource-h.Link[0])] += topology.CacheLine * d.Weight * missRate
		}
		lt.Total += topology.CacheLine * h.bcastLinks[src] * missRate
	}
	if extraLocalBytes > 0 {
		mcw[src] += extraLocalBytes
	}
	n := 0
	for _, w := range mcw {
		if w > 0 {
			n++
		}
	}
	for _, w := range linkw {
		if w > 0 {
			n++
		}
	}
	if cyclesPerAccess > 0 && core != sim.Invalid {
		n++
	}
	demands = buf[:0]
	if cap(demands) < n {
		demands = make([]sim.Demand, 0, n)
	}
	for s, w := range mcw {
		if w > 0 {
			demands = append(demands, sim.Demand{Resource: h.MC[s], Weight: w})
		}
	}
	for li, w := range linkw {
		if w > 0 {
			demands = append(demands, sim.Demand{Resource: h.Link[li], Weight: w})
		}
	}
	if cyclesPerAccess > 0 && core != sim.Invalid {
		demands = append(demands, sim.Demand{Resource: core, Weight: cyclesPerAccess})
	}
	if avgMemLatency <= 0 {
		avgMemLatency = m.LocalLatency
	}
	avg := (1-missRate)*L3HitLatency + missRate*avgMemLatency
	rateCap = m.RandomMLP / avg
	return demands, rateCap, lt
}

// SetMCScale scales one socket's memory-controller capacity to factor x the
// machine's nominal MCBandwidth, taking effect at the next allocation. The
// chaos layer's thermal-throttling events drive it; factor 1 restores the
// nominal capacity. The factor must be positive — a dead controller is
// modelled by taking the socket's workers offline, not by zero bandwidth.
func (h *Hardware) SetMCScale(socket int, factor float64) {
	h.Engine.SetResourceCapacity(h.MC[socket], h.Machine.MCBandwidth*factor)
}

// SetSocketLinkScale scales the capacity of every directed interconnect link
// touching the socket (either endpoint) to factor x its nominal bandwidth —
// the chaos layer's link-degradation events. Factor 1 restores the links.
func (h *Hardware) SetSocketLinkScale(socket int, factor float64) {
	for i, l := range h.Machine.Links {
		if l.From == socket || l.To == socket {
			h.Engine.SetResourceCapacity(h.Link[i], l.Bandwidth*factor)
		}
	}
}

// MCUtilization returns cumulative bytes served per socket MC.
func (h *Hardware) MCUtilization() []float64 {
	out := make([]float64, len(h.MC))
	for s, id := range h.MC {
		out[s] = h.Engine.ResourceUsage(id)
	}
	return out
}

// MCLoad returns the instantaneous demand active flows place on each socket's
// memory controller — the "current MC utilization" signal the exec layer
// weighs replica sockets by when spreading scan and materialization tasks
// over the copies of a replicated column (Section 4.2's replication
// placement).
func (h *Hardware) MCLoad() []float64 {
	return h.Engine.ActiveDemand(h.MC)
}
