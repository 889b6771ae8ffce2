// Package chaos is the fault-injection layer of the adversarial and
// degraded-hardware scenario suite: a declarative schedule of hardware and
// topology faults, applied to a running engine by a simulation actor. The
// faults it models are the ones the paper's adaptive machinery must degrade
// gracefully under rather than optimize for — a socket's worker pool going
// offline mid-run (its queued tasks drained and re-placed, its replicas
// invalidated), a memory controller thermally throttled to a fraction of its
// nominal bandwidth, and interconnect links degrading the same way.
//
// The injection hooks live in the layers themselves (sim.SetResourceCapacity,
// hw.SetMCScale / SetSocketLinkScale, sched.SetSocketOnline) and are
// zero-cost when no fault is scheduled: capacities are re-read by the
// allocator every step anyway, and the scheduler's offline path is a nil
// check until the first socket event. An engine with an empty schedule is
// bit-identical to one without the chaos layer (pinned by a harness golden
// test). Antagonist tenants, write storms, and burst arrivals — the workload-
// shaped faults — are composed in the harness's chaos-* experiments from the
// workload package instead; this package owns the hardware-shaped ones.
package chaos

import (
	"fmt"
	"sort"

	"numacs/internal/colstore"
	"numacs/internal/hw"
	"numacs/internal/placement"
	"numacs/internal/sched"
	"numacs/internal/trace"
)

// Kind is the fault class of one scheduled event.
type Kind int

const (
	// SocketOffline takes a socket's worker pool down: queued tasks are
	// drained and re-placed on online sockets, free workers park, and every
	// column replica on the socket is invalidated (dropped). The socket's
	// memory stays reachable — remote streams model the surviving cache-
	// coherent access path — so primaries on the dead socket degrade to
	// remote service rather than data loss.
	SocketOffline Kind = iota
	// SocketOnline returns an offline socket's workers to service. Replicas
	// dropped at the offline event are NOT restored — re-replication is the
	// adaptive placer's job, which is exactly the convergence the chaos
	// experiments assert.
	SocketOnline
	// MCThrottle scales a socket's memory-controller capacity to Factor x
	// nominal — a thermal event. Factor 1 restores it.
	MCThrottle
	// LinkThrottle scales every interconnect link touching the socket to
	// Factor x nominal. Factor 1 restores them.
	LinkThrottle
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case SocketOffline:
		return "socket-offline"
	case SocketOnline:
		return "socket-online"
	case MCThrottle:
		return "mc-throttle"
	case LinkThrottle:
		return "link-throttle"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual time the fault fires.
	At float64
	// Kind is the fault class.
	Kind Kind
	// Socket is the faulted socket.
	Socket int
	// Factor is the capacity scale of throttle events (must be positive;
	// 1 restores nominal capacity). Ignored by the socket events.
	Factor float64
}

// Config is the declarative fault schedule. Events fire in time order; equal
// times fire in schedule order.
type Config struct {
	// Schedule lists the faults to inject.
	Schedule []Event
}

// Applied records one injected fault for observability and assertions.
type Applied struct {
	// Event echoes the fired event.
	Event
	// TasksReplaced counts queued tasks drained and re-placed by a
	// SocketOffline event.
	TasksReplaced int
	// ReplicasDropped counts column replicas invalidated by a SocketOffline
	// event.
	ReplicasDropped int
}

// Injector applies a fault schedule to a running engine. It is a simulation
// actor (core.Engine.EnableChaos registers it); each tick it fires every
// event whose time has arrived, in schedule order.
type Injector struct {
	// HW, Sched and Placer are the substrates the faults act on.
	HW     *hw.Hardware
	Sched  *sched.Scheduler
	Placer *placement.Placer
	// Columns lists the columns whose replicas socket faults invalidate.
	Columns []*colstore.Column

	schedule []Event
	next     int

	// Applied is the log of injected faults, oldest first.
	Applied []Applied

	// Decisions, when non-nil, is the flight recorder's decision log: every
	// injected fault is recorded with its blast radius (tasks re-placed,
	// replicas dropped, throttle factor).
	Decisions *trace.DecisionLog
}

// New validates a schedule and builds an injector over the given substrates.
// It panics on an unknown kind, an out-of-range socket, or a non-positive
// throttle factor — a bad schedule is a programming error, not a runtime
// condition.
func New(cfg Config, h *hw.Hardware, s *sched.Scheduler, p *placement.Placer, columns []*colstore.Column) *Injector {
	sockets := h.Machine.Sockets
	for i, ev := range cfg.Schedule {
		if ev.Socket < 0 || ev.Socket >= sockets {
			panic(fmt.Sprintf("chaos: event %d: socket %d out of range [0,%d)", i, ev.Socket, sockets))
		}
		switch ev.Kind {
		case SocketOffline, SocketOnline:
		case MCThrottle, LinkThrottle:
			if ev.Factor <= 0 {
				panic(fmt.Sprintf("chaos: event %d: %v needs a positive factor, got %v", i, ev.Kind, ev.Factor))
			}
		default:
			panic(fmt.Sprintf("chaos: event %d: unknown kind %d", i, int(ev.Kind)))
		}
	}
	schedule := append([]Event(nil), cfg.Schedule...)
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].At < schedule[j].At })
	return &Injector{HW: h, Sched: s, Placer: p, Columns: columns, schedule: schedule}
}

// Tick implements sim.Actor: fire every due event.
func (in *Injector) Tick(now float64) {
	for in.next < len(in.schedule) && in.schedule[in.next].At <= now {
		in.apply(in.schedule[in.next], now)
		in.next++
	}
}

// apply injects one fault and logs it.
func (in *Injector) apply(ev Event, now float64) {
	a := Applied{Event: ev}
	switch ev.Kind {
	case SocketOffline:
		a.TasksReplaced = in.Sched.SetSocketOnline(ev.Socket, false)
		for _, col := range in.Columns {
			if in.Placer.DropReplica(col, ev.Socket) > 0 {
				a.ReplicasDropped++
			}
		}
	case SocketOnline:
		in.Sched.SetSocketOnline(ev.Socket, true)
	case MCThrottle:
		in.HW.SetMCScale(ev.Socket, ev.Factor)
	case LinkThrottle:
		in.HW.SetSocketLinkScale(ev.Socket, ev.Factor)
	}
	in.Applied = append(in.Applied, a)
	if in.Decisions != nil {
		cause := fmt.Sprintf("scheduled at %.1fms", ev.At*1e3)
		switch ev.Kind {
		case SocketOffline:
			cause = fmt.Sprintf("scheduled at %.1fms: %d queued tasks re-placed, %d replicas dropped",
				ev.At*1e3, a.TasksReplaced, a.ReplicasDropped)
		case MCThrottle, LinkThrottle:
			cause = fmt.Sprintf("scheduled at %.1fms: capacity scaled to %.0f%% of nominal",
				ev.At*1e3, ev.Factor*100)
		}
		in.Decisions.Record(trace.Decision{
			Time: now, Source: "chaos", Kind: ev.Kind.String(),
			Item: fmt.Sprintf("socket %d", ev.Socket), From: ev.Socket, To: ev.Socket,
			Cause: cause,
		})
	}
}
