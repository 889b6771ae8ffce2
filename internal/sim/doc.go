// Package sim implements a deterministic, time-stepped fluid simulator used
// as the hardware substrate for the NUMA experiments.
//
// The simulator models shared hardware resources (memory-controller
// bandwidth, interconnect-link bandwidth, per-core compute) as capacities in
// units per second. Work in flight is modelled as flows: a flow has a number
// of remaining units (bytes, accesses, or cycles), an optional per-flow rate
// cap (e.g. the latency-bound streaming rate of a single hardware thread),
// and a set of weighted demands on resources. At every step the engine
// computes a weighted max-min fair ("water-filling") rate allocation across
// all active flows, advances them, and fires completion callbacks.
//
// The engine owns its flows. A caller describes one in a Flow, and
// StartFlow copies the description — Remaining, RateCap, the callbacks and
// the elements of Demands — into a record the engine recycles. The callbacks
// run as they would on the caller's value; the caller may reuse or drop its
// Flow and its Demands once StartFlow returns.
//
// The fluid abstraction reproduces the contention phenomena the paper's
// findings rest on — memory-controller saturation, QPI-link saturation,
// latency-bound remote access, and cache-coherence broadcast overhead —
// without requiring real NUMA hardware, which the Go runtime could not pin
// threads to anyway. See docs/ARCHITECTURE.md (its introduction) and
// EXPERIMENTS.md (its opening paragraph and the table1 row) for the
// calibration story.
package sim
